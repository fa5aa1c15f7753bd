package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/llmsim"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/vecmath"
)

// serveFlags declares, under cacheserve's names and with its defaults,
// every cacheserve flag the benchmark's stack is built from. The stack
// is assembled from these values the way cacheserve's main assembles
// its own; parity_test.go fails when a default here drifts from a
// freshly built cacheserve's -h output.
func serveFlags() *flag.FlagSet {
	fs := flag.NewFlagSet("cacheserve", flag.ContinueOnError)
	fs.String("upstream", "", "")
	fs.Bool("sleep", false, "")
	fs.String("model", "", "")
	fs.String("arch", "mpnet-sim", "")
	fs.Int64("seed", 1, "")
	fs.Float64("tau", 0.83, "")
	fs.Float64("ctx-tau", 0, "")
	fs.Int("topk", 5, "")
	fs.Int("tenant-capacity", 4096, "")
	fs.Float64("feedback-step", 0.01, "")
	fs.String("index", "scan", "")
	fs.Int("shards", 16, "")
	fs.Int("max-tenants", 0, "")
	fs.String("persist-dir", "", "")
	fs.Bool("cluster", false, "")
	fs.Int("batch", 32, "")
	fs.Duration("batch-wait", 200*time.Microsecond, "")
	fs.Bool("no-batch", false, "")
	fs.Int("search-batch", 32, "")
	fs.Duration("search-batch-wait", 0, "")
	fs.Bool("no-search-batch", false, "")
	fs.Int("stats-tenants", 20, "")
	fs.Float64("quota-rate", 0, "")
	fs.Float64("quota-burst", 0, "")
	fs.Int("limit-max", 0, "")
	fs.Int("limit-min", 4, "")
	fs.Int("limit-queue", 128, "")
	fs.Duration("upstream-timeout", 0, "")
	fs.Int("breaker-window", 0, "")
	fs.Float64("breaker-threshold", 0.5, "")
	fs.Duration("breaker-cooloff", 5*time.Second, "")
	fs.Int("breaker-probes", 3, "")
	fs.Float64("tau-degraded", 0.05, "")
	fs.Int64("maintenance-weight", 2, "")
	fs.Bool("metrics", false, "")
	fs.Float64("trace-sample", 0, "")
	fs.Duration("trace-slow", 0, "")
	fs.Bool("fl", false, "")
	return fs
}

// flagValues reads a parsed serveFlags set.
type flagValues struct{ fs *flag.FlagSet }

func (v flagValues) get(name string) any {
	return v.fs.Lookup(name).Value.(flag.Getter).Get()
}
func (v flagValues) str(name string) string      { return v.get(name).(string) }
func (v flagValues) b(name string) bool          { return v.get(name).(bool) }
func (v flagValues) i(name string) int           { return v.get(name).(int) }
func (v flagValues) i64(name string) int64       { return v.get(name).(int64) }
func (v flagValues) f(name string) float64       { return v.get(name).(float64) }
func (v flagValues) d(name string) time.Duration { return v.get(name).(time.Duration) }
func (v flagValues) f32(name string) float32     { return float32(v.f(name)) }
func (v flagValues) breaker() resilience.BreakerConfig {
	return resilience.BreakerConfig{
		Window: v.i("breaker-window"), FailureRatio: v.f("breaker-threshold"),
		OpenFor: v.d("breaker-cooloff"), HalfOpenProbes: v.i("breaker-probes"),
	}
}

// Stack is one in-process cacheserve: the same layers wired the same way,
// listening on a loopback port.
type Stack struct {
	URL      string
	Registry *server.Registry
	Batcher  *server.Batcher
	Search   *server.SearchBatcher
	Model    *embed.Model

	srv *server.Server
}

// buildStack assembles the serving stack from cacheserve flag values,
// persisting (when -persist-dir is set) through fsys. With tr non-nil,
// every public seam is wrapped so tr sees each layer's calls; with tr
// nil the stack is exactly cacheserve's.
func buildStack(fs *flag.FlagSet, fsys store.FS, tr *tracer) (*Stack, error) {
	v := flagValues{fs}
	for _, name := range []string{"upstream", "model"} {
		if v.str(name) != "" {
			return nil, fmt.Errorf("stack: -%s is not supported", name)
		}
	}
	for _, name := range []string{"sleep", "cluster", "fl"} {
		if v.b(name) {
			return nil, fmt.Errorf("stack: -%s is not supported", name)
		}
	}
	if v.str("index") != "scan" {
		return nil, fmt.Errorf("stack: -index %q is not supported (only scan)", v.str("index"))
	}
	arch, err := embed.ArchByName(v.str("arch"))
	if err != nil {
		return nil, err
	}
	model := embed.NewModel(arch, v.i64("seed"))
	st := &Stack{Model: model}

	var enc embed.Encoder = model
	if tr != nil {
		enc = &innerEncoder{tr: tr, m: model}
	}
	if !v.b("no-batch") {
		st.Batcher = server.NewBatcher(enc, server.BatcherConfig{MaxBatch: v.i("batch"), MaxWait: v.d("batch-wait")})
		enc = st.Batcher
	}
	if tr != nil {
		enc = &outerEncoder{tr: tr, enc: enc}
	}

	var searcher cache.Searcher
	if !v.b("no-search-batch") {
		st.Search = server.NewSearchBatcher(server.BatcherConfig{
			MaxBatch: v.i("search-batch"), MaxWait: v.d("search-batch-wait"),
		})
		searcher = st.Search
	}
	if tr != nil {
		if searcher == nil {
			searcher = cache.DirectSearcher{}
		}
		searcher = &tracedSearcher{tr: tr, inner: searcher}
	}

	sim := llmsim.New(llmsim.DefaultConfig())
	var llm core.LLM = sim
	gov := resilience.NewGovernor(resilience.GovernorConfig{
		Quota: resilience.QuotaConfig{Rate: v.f("quota-rate"), Burst: v.f("quota-burst")},
		Limiter: resilience.LimiterConfig{
			MinLimit: v.i("limit-min"), MaxLimit: v.i("limit-max"), MaxQueue: v.i("limit-queue"),
		},
		Breaker:           v.breaker(),
		MaintenanceWeight: v.i64("maintenance-weight"),
	})
	var caller resilience.Caller = sim
	if tr != nil {
		t := &tracedLLM{tr: tr, s: sim}
		llm, caller = t, t
	}
	if gov.Limiter != nil || gov.Breaker != nil || v.d("upstream-timeout") > 0 {
		llm = resilience.NewGuard(caller, gov, v.d("upstream-timeout"))
	}
	var maintGate cache.Gate
	if gov.Maintenance != nil {
		maintGate = gov.Maintenance
	}

	factory := func(userID string) *core.Client {
		return core.New(core.Options{
			Encoder:          enc,
			LLM:              llm,
			Tau:              v.f32("tau"),
			CtxTau:           v.f32("ctx-tau"),
			TopK:             v.i("topk"),
			Capacity:         v.i("tenant-capacity"),
			FeedbackStep:     v.f32("feedback-step"),
			DegradedTauDelta: v.f32("tau-degraded"),
			MaintenanceGate:  maintGate,
			Searcher:         searcher,
		})
	}
	rcfg := server.RegistryConfig{
		Shards:     v.i("shards"),
		MaxTenants: v.i("max-tenants"),
		PersistDir: v.str("persist-dir"),
		Factory:    factory,
		FS:         fsys,
	}
	if tr != nil {
		rcfg.Factory = func(userID string) *core.Client {
			tr.activateStart()
			return factory(userID)
		}
		rcfg.Hooks = tr
		rcfg.FS = &tracedFS{tr: tr, fs: fsys}
	}
	st.Registry, err = server.NewRegistry(rcfg)
	if err != nil {
		st.Close()
		return nil, err
	}

	var metrics *obs.Registry
	if v.b("metrics") {
		metrics = obs.NewRegistry()
	}
	st.srv, err = server.New(server.Config{
		Registry:      st.Registry,
		Batcher:       st.Batcher,
		SearchBatcher: st.Search,
		StatsTenants:  v.i("stats-tenants"),
		Metrics:       metrics,
		Tracer: obs.NewTracer(obs.TracerConfig{
			Node: "local", SampleRate: v.f("trace-sample"), SlowThreshold: v.d("trace-slow"),
		}),
		Governor: gov,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	if tr != nil {
		st.srv.Wrap(tr.middleware)
	}
	if err := st.srv.Serve("127.0.0.1:0"); err != nil {
		st.Close()
		return nil, err
	}
	st.URL = "http://" + st.srv.Addr()
	return st, nil
}

// populate fills every tenant's cache with its entries, each answered
// with the upstream's response, through the registry the way a tenant's
// own misses would fill it: activation (and, under a resident bound,
// eviction) happens as tenants are reached. Tenants are filled in
// reverse order so the first ones — the hot set, where a workload has
// one — end up resident.
func (st *Stack) populate(w *Workload, answers *answerBook) error {
	texts := make([]string, 0, 64)
	for ti := len(w.Tenants) - 1; ti >= 0; ti-- {
		t := &w.Tenants[ti]
		tenant, err := st.Registry.Get(t.ID)
		if err != nil {
			return err
		}
		c := tenant.Client.Cache()
		ids := make([]int, len(t.Entries))
		for lo := 0; lo < len(t.Entries); lo += 32 {
			hi := min(lo+32, len(t.Entries))
			texts = texts[:0]
			for _, e := range t.Entries[lo:hi] {
				texts = append(texts, e.Query)
			}
			embs := st.Model.EncodeBatch(texts)
			for i, e := range t.Entries[lo:hi] {
				parent := cache.NoParent
				if e.Parent >= 0 {
					parent = ids[e.Parent]
				}
				id, err := c.Put(e.Query, answers.get(e.Query), vecmath.Clone(embs.Row(i)), parent)
				if err != nil {
					tenant.Release()
					return fmt.Errorf("populating %s: %w", t.ID, err)
				}
				ids[lo+i] = id
			}
		}
		tenant.Release()
	}
	return nil
}

// encodeStats and searchStats read the batchers' counters (zero when a
// batcher is disabled).
func (st *Stack) encodeStats() server.BatcherStats {
	if st.Batcher == nil {
		return server.BatcherStats{}
	}
	return st.Batcher.Stats()
}

func (st *Stack) searchStats() server.BatcherStats {
	if st.Search == nil {
		return server.BatcherStats{}
	}
	return st.Search.Stats()
}

// Close stops the listener and the batchers.
func (st *Stack) Close() {
	if st.srv != nil {
		if err := st.srv.Close(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("closing server: %v\n", err)
		}
	}
	if st.Batcher != nil {
		st.Batcher.Close()
	}
	if st.Search != nil {
		st.Search.Close()
	}
}
