package main

import (
	"context"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/embed"
	"repro/internal/llmsim"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/vecmath"
)

// The tracer records spans from outside the program, at its public seams:
// HTTP middleware around the server's handler, encoder wrappers on both
// sides of the encode batcher, a searcher wrapper outside the search
// batcher, an upstream wrapper, the registry's tenant factory and hooks,
// and a filesystem wrapper under persistence. Spans on a request's
// handler goroutine are attributed to that request through the
// goroutine's ID; the inner encoder runs on the batcher's dispatcher
// goroutine and is matched to waiting requests by text and time.

type tracer struct {
	base time.Time

	mu         sync.Mutex
	active     map[uint64]*reqTrace // handler goroutine → request in flight
	activating map[uint64]int64     // goroutine → tenant factory call time
	evicting   map[uint64]int64     // goroutine → eviction temp-file create time
	batches    [64]batchSpan        // ring of recent inner-encoder calls
	nbatches   int
	agg        traceAgg
}

// traceAgg accumulates per-layer totals since the last reset.
type traceAgg struct {
	requests   int
	selfUs     []float64
	violations int // requests whose child spans leave the handler span

	encodeCalls int
	encodeWait  int64 // ns
	unmatched   int   // outer encodes with no inner call found inside them
	innerTexts  int
	innerNs     int64

	searchUs   []float64
	candidates int

	upCalls int
	upNs    int64
	upSimNs int64

	activateMs []float64
	evictMs    []float64

	bytesWritten int64
	bytesRead    int64
	fsyncs       int64
	ioNs         int64
	persisted    int64 // cache entries in persisted tenants
}

type span struct{ start, end int64 }

type reqTrace struct {
	start int64
	spans []span
}

type batchSpan struct {
	start, end int64
	texts      []string
}

func newTracer() *tracer {
	return &tracer{
		base:       time.Now(),
		active:     make(map[uint64]*reqTrace),
		activating: make(map[uint64]int64),
		evicting:   make(map[uint64]int64),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// reset starts a new measurement window.
func (t *tracer) reset() {
	t.mu.Lock()
	t.agg = traceAgg{}
	t.mu.Unlock()
}

// snapshot returns the totals since the last reset.
func (t *tracer) snapshot() traceAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg
	a.selfUs = append([]float64(nil), a.selfUs...)
	a.searchUs = append([]float64(nil), a.searchUs...)
	a.activateMs = append([]float64(nil), a.activateMs...)
	a.evictMs = append([]float64(nil), a.evictMs...)
	return a
}

// goid returns the calling goroutine's ID, parsed from the header line
// runtime.Stack writes ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// child records a span on the calling goroutine's request, if any.
// Callers hold t.mu.
func (t *tracer) childLocked(g uint64, start, end int64) {
	if rt := t.active[g]; rt != nil {
		rt.spans = append(rt.spans, span{start, end})
	}
}

// middleware opens the handler span of every query request and, when
// the handler returns, checks that every child span lies inside it and
// records the handler's self time: its duration minus the union of its
// child spans.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/query" {
			next.ServeHTTP(w, r)
			return
		}
		g := goid()
		rt := &reqTrace{start: t.now()}
		t.mu.Lock()
		t.active[g] = rt
		t.mu.Unlock()
		next.ServeHTTP(w, r)
		end := t.now()
		t.mu.Lock()
		delete(t.active, g)
		covered, ok := union(rt.spans, rt.start, end)
		if !ok {
			t.agg.violations++
		}
		t.agg.requests++
		t.agg.selfUs = append(t.agg.selfUs, float64(end-rt.start-covered)/1e3)
		t.mu.Unlock()
	})
}

// union returns the total length covered by spans and whether every span
// lies inside [start, end].
func union(spans []span, start, end int64) (int64, bool) {
	ok := true
	for _, s := range spans {
		if s.start < start || s.end > end || s.end < s.start {
			ok = false
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	var covered, curS, curE int64
	for i, s := range spans {
		if i == 0 || s.start > curE {
			covered += curE - curS
			curS, curE = s.start, s.end
		} else if s.end > curE {
			curE = s.end
		}
	}
	covered += curE - curS
	return covered, ok
}

// outerEncoder wraps the encoder tenants call (the batcher): its spans
// include the batcher's gather wait.
type outerEncoder struct {
	tr  *tracer
	enc embed.Encoder
}

func (o *outerEncoder) Encode(text string) []float32 {
	g, s := goid(), o.tr.now()
	out := o.enc.Encode(text)
	o.tr.encoded(g, text, s)
	return out
}

func (o *outerEncoder) EncodeInto(text string, dst []float32) []float32 {
	g, s := goid(), o.tr.now()
	out := embed.EncodeInto(o.enc, text, dst)
	o.tr.encoded(g, text, s)
	return out
}

func (o *outerEncoder) Dim() int     { return o.enc.Dim() }
func (o *outerEncoder) Name() string { return o.enc.Name() }

// encoded closes an outer encode span and charges its wait: the span's
// length minus that of the latest inner call that encoded text inside it.
func (t *tracer) encoded(g uint64, text string, start int64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.childLocked(g, start, end)
	t.agg.encodeCalls++
	for i := 1; i <= min(t.nbatches, len(t.batches)); i++ {
		b := &t.batches[(t.nbatches-i)%len(t.batches)]
		if b.start < start || b.end > end {
			continue
		}
		for _, s := range b.texts {
			if s == text {
				t.agg.encodeWait += (end - start) - (b.end - b.start)
				return
			}
		}
	}
	t.agg.unmatched++
	t.agg.encodeWait += end - start
}

// innerEncoder wraps the model inside the batcher: its spans are the
// encode compute alone.
type innerEncoder struct {
	tr *tracer
	m  *embed.Model
}

func (e *innerEncoder) Encode(text string) []float32 {
	s := e.tr.now()
	out := e.m.Encode(text)
	e.tr.inner(s, []string{text})
	return out
}

func (e *innerEncoder) EncodeInto(text string, dst []float32) []float32 {
	s := e.tr.now()
	out := e.m.EncodeInto(text, dst)
	e.tr.inner(s, []string{text})
	return out
}

func (e *innerEncoder) EncodeBatch(texts []string) *vecmath.Matrix {
	s := e.tr.now()
	out := e.m.EncodeBatch(texts)
	e.tr.inner(s, texts)
	return out
}

func (e *innerEncoder) Dim() int     { return e.m.Dim() }
func (e *innerEncoder) Name() string { return e.m.Name() }

func (t *tracer) inner(start int64, texts []string) {
	end := t.now()
	t.mu.Lock()
	t.batches[t.nbatches%len(t.batches)] = batchSpan{start, end, texts}
	t.nbatches++
	t.agg.innerTexts += len(texts)
	t.agg.innerNs += end - start
	t.mu.Unlock()
}

// tracedSearcher wraps the searcher tenants call (the search batcher),
// so its spans include the batcher's wait.
type tracedSearcher struct {
	tr    *tracer
	inner cache.Searcher
}

func (s *tracedSearcher) FindSimilar(c *cache.Cache, emb []float32, k int, tau float32, dst []cache.Match) []cache.Match {
	g, start := goid(), s.tr.now()
	out := s.inner.FindSimilar(c, emb, k, tau, dst)
	end := s.tr.now()
	s.tr.mu.Lock()
	s.tr.childLocked(g, start, end)
	s.tr.agg.searchUs = append(s.tr.agg.searchUs, float64(end-start)/1e3)
	s.tr.agg.candidates += len(out)
	s.tr.mu.Unlock()
	return out
}

// tracedLLM wraps the in-process upstream.
type tracedLLM struct {
	tr *tracer
	s  *llmsim.Service
}

func (l *tracedLLM) Query(q string) (string, time.Duration) {
	resp, took, _ := l.QueryContext(context.Background(), q)
	return resp, took
}

func (l *tracedLLM) QueryContext(ctx context.Context, q string) (string, time.Duration, error) {
	g, start := goid(), l.tr.now()
	resp, took, err := l.s.QueryContext(ctx, q)
	end := l.tr.now()
	l.tr.mu.Lock()
	l.tr.childLocked(g, start, end)
	l.tr.agg.upCalls++
	l.tr.agg.upNs += end - start
	l.tr.agg.upSimNs += int64(took)
	l.tr.mu.Unlock()
	return resp, took, err
}

// activateStart marks a tenant factory call: activation begins.
func (t *tracer) activateStart() {
	g, now := goid(), t.now()
	t.mu.Lock()
	t.activating[g] = now
	t.mu.Unlock()
}

// TenantActivated implements server.TenantHooks: activation ends.
func (t *tracer) TenantActivated(*server.Tenant, map[string][]byte) {
	g, end := goid(), t.now()
	t.mu.Lock()
	if start, ok := t.activating[g]; ok {
		delete(t.activating, g)
		t.childLocked(g, start, end)
		t.agg.activateMs = append(t.agg.activateMs, float64(end-start)/1e6)
	}
	t.mu.Unlock()
}

// TenantMeta implements server.TenantHooks. It contributes no records;
// it counts the entries of the tenant being persisted.
func (t *tracer) TenantMeta(tn *server.Tenant) map[string][]byte {
	n := int64(tn.Client.Cache().Len())
	t.mu.Lock()
	t.agg.persisted += n
	t.mu.Unlock()
	return nil
}

// tracedFS wraps persistence's filesystem: bytes, fsyncs and time in
// every call, plus the eviction span from the temp-file create that
// starts a persist to the directory fsync that ends it.
type tracedFS struct {
	tr *tracer
	fs store.FS
}

func (t *tracer) io(start int64) {
	d := t.now() - start
	t.mu.Lock()
	t.agg.ioNs += d
	t.mu.Unlock()
}

func (f *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	s := f.tr.now()
	if flag&os.O_EXCL != 0 {
		g := goid()
		f.tr.mu.Lock()
		f.tr.evicting[g] = s
		f.tr.mu.Unlock()
	}
	file, err := f.fs.OpenFile(name, flag, perm)
	f.tr.io(s)
	if err != nil {
		return nil, err
	}
	return &tracedFile{tr: f.tr, f: file}, nil
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	defer f.tr.io(f.tr.now())
	return f.fs.Rename(oldpath, newpath)
}

func (f *tracedFS) Remove(name string) error {
	defer f.tr.io(f.tr.now())
	return f.fs.Remove(name)
}

func (f *tracedFS) MkdirAll(dir string, perm os.FileMode) error {
	defer f.tr.io(f.tr.now())
	return f.fs.MkdirAll(dir, perm)
}

func (f *tracedFS) Stat(name string) (os.FileInfo, error) {
	defer f.tr.io(f.tr.now())
	return f.fs.Stat(name)
}

func (f *tracedFS) ReadDir(dir string) ([]os.DirEntry, error) {
	defer f.tr.io(f.tr.now())
	return f.fs.ReadDir(dir)
}

func (f *tracedFS) SyncDir(dir string) error {
	g, s := goid(), f.tr.now()
	err := f.fs.SyncDir(dir)
	end := f.tr.now()
	f.tr.mu.Lock()
	f.tr.agg.ioNs += end - s
	f.tr.agg.fsyncs++
	if start, ok := f.tr.evicting[g]; ok {
		delete(f.tr.evicting, g)
		f.tr.childLocked(g, start, end)
		f.tr.agg.evictMs = append(f.tr.agg.evictMs, float64(end-start)/1e6)
	}
	f.tr.mu.Unlock()
	return err
}

type tracedFile struct {
	tr *tracer
	f  store.File
}

func (f *tracedFile) Write(p []byte) (int, error) {
	s := f.tr.now()
	n, err := f.f.Write(p)
	f.tr.mu.Lock()
	f.tr.agg.bytesWritten += int64(n)
	f.tr.agg.ioNs += f.tr.now() - s
	f.tr.mu.Unlock()
	return n, err
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	s := f.tr.now()
	n, err := f.f.ReadAt(p, off)
	f.tr.mu.Lock()
	f.tr.agg.bytesRead += int64(n)
	f.tr.agg.ioNs += f.tr.now() - s
	f.tr.mu.Unlock()
	return n, err
}

func (f *tracedFile) Sync() error {
	s := f.tr.now()
	err := f.f.Sync()
	f.tr.mu.Lock()
	f.tr.agg.fsyncs++
	f.tr.agg.ioNs += f.tr.now() - s
	f.tr.mu.Unlock()
	return err
}

func (f *tracedFile) Close() error {
	defer f.tr.io(f.tr.now())
	return f.f.Close()
}

func (f *tracedFile) Truncate(size int64) error {
	defer f.tr.io(f.tr.now())
	return f.f.Truncate(size)
}

func (f *tracedFile) Seek(offset int64, whence int) (int64, error) {
	defer f.tr.io(f.tr.now())
	return f.f.Seek(offset, whence)
}
