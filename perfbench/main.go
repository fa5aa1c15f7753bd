// Command perfbench is the serving benchmark: it builds cacheserve's
// stack in process, populates it with a seeded workload, drives it over
// loopback HTTP and checks every answer. See README.md for the
// workloads, phases and metrics.
//
//	go run . --workload chat --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the traced comparison and prints the per-layer metrics. The last
// line of standard output is one JSON object; the exit code is non-zero
// when any answer was wrong.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/store/faultfs"
)

const (
	// setupReps is how many times a measured run builds and populates
	// the stack; setup_s is their median and the last one serves.
	setupReps = 3
	// Rate ladder: ladderSteps steps starting at the nominal rate, each
	// ladderRatio times the one before.
	ladderSteps = 10
	ladderRatio = 1.15
	// Shares of --seconds given to the open-loop and closed-loop phases
	// of a measured run; the ladder gets the rest.
	openShare   = 0.45
	closedShare = 0.2
)

type metric struct {
	Name  string
	Value float64
	Unit  string
}

type report struct {
	attempted, failed int
	firstBad          string
	metrics           []metric // printed in the JSON result
	extra             []metric // printed in the table only
	notes             []string
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *report) addExtra(name string, v float64, unit string) {
	r.extra = append(r.extra, metric{name, v, unit})
}

func (r *report) count(ps ...*phase) {
	for _, p := range ps {
		r.attempted += p.attempted
		r.failed += p.failed
	}
}

func (r *report) correct() bool { return r.failed == 0 && r.firstBad == "" }

func main() {
	var (
		workload = flag.String("workload", "chat", "workload: chat, hot-tenant or churn")
		seed     = flag.Int64("seed", 1, "seed of the generated population and request stream")
		seconds  = flag.Int("seconds", 20, "measured seconds per run")
		traced   = flag.Int("trace", 0, "1 runs the traced comparison and reports per-layer metrics")
	)
	flag.Parse()
	w, err := NewWorkload(*workload, *seed)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1")
	}
	var rep *report
	if err == nil {
		budget := time.Duration(*seconds) * time.Second
		if *traced == 1 {
			rep, err = tracedRun(w, *seed, budget)
		} else {
			rep, err = measuredRun(w, budget)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep.print(os.Stdout)
	if !rep.correct() {
		os.Exit(1)
	}
}

// persistDir is where churn's tenants persist. It names a directory
// on an in-memory filesystem (see setup), not on disk.
const persistDir = "/perfbench/tenants"

// flagsFor returns cacheserve's defaults with the workload's overrides.
func flagsFor(sp *spec) *flag.FlagSet {
	fs := serveFlags()
	if sp.maxTenants > 0 {
		fs.Set("max-tenants", strconv.Itoa(sp.maxTenants))
	}
	if sp.persist {
		fs.Set("persist-dir", persistDir)
	}
	return fs
}

// setup builds and populates one stack, returning it with its wall time.
// Persistence runs on a fresh in-memory filesystem (faultfs with no
// faults scheduled): the benchmark measures the program's snapshot work,
// not the disk of the machine it runs on, and writes nothing outside
// its own process.
func setup(w *Workload, answers *answerBook, tr *tracer) (*Stack, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	st, err := buildStack(flagsFor(w.Spec), faultfs.New(), tr)
	if err != nil {
		return nil, 0, err
	}
	if err := st.populate(w, answers); err != nil {
		st.Close()
		return nil, 0, err
	}
	return st, time.Since(start), nil
}

// warmupJobs is the closed-loop warm-up before measuring: enough jobs for
// connections, pools and the runtime to settle.
func warmupJobs(sp *spec) int { return sp.tracedJobs / 10 }

// measuredRun is the untraced run: set up setupReps times, then the
// open-loop phase at the nominal rate (latency, hit ratio and F1), the
// closed-loop capacity phase and the rate ladder on the last stack.
func measuredRun(w *Workload, budget time.Duration) (*report, error) {
	sp := w.Spec
	answers := newAnswerBook()
	for _, t := range w.Tenants {
		for _, e := range t.Entries {
			answers.get(e.Query)
		}
	}
	var st *Stack
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.Close()
		}
		var took time.Duration
		var err error
		st, took, err = setup(w, answers, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer st.Close()

	conns := runtime.NumCPU()
	chk := newChecker(w, answers)
	d := newDriver(w, st.URL, chk, conns)
	defer d.close()
	warm, open, closed := &phase{}, &phase{}, &phase{}
	d.closed(warm, 0, warmupJobs(sp))
	runtime.GC()
	d.open(open, sp.nominal, scale(budget, openShare))
	runtime.GC()
	d.closed(closed, scale(budget, closedShare), 0)

	rep := &report{}
	rep.count(warm, open, closed)
	rep.notes = append(rep.notes, fmt.Sprintf("open %5.0f req/s: %d requests, p50 %.2f p90 %.2f p99 %.2f p99.9 %.2f max %.2f ms, lag p99 %.2f ms, backlog max %d",
		sp.nominal, open.attempted, percentile(open.latMs, 50), percentile(open.latMs, 90), percentile(open.latMs, 99),
		percentile(open.latMs, 99.9), percentile(open.latMs, 100), percentile(open.lagMs, 99), open.backlogMax))
	stepDur := scale(budget, 1-openShare-closedShare) / ladderSteps
	slo := 0.0
	// A step fails when it misses the limit twice in a row, so one
	// transient stall of the machine does not end the ladder.
	step := func(rate float64) bool {
		p := &phase{}
		runtime.GC()
		d.open(p, rate, stepDur)
		rep.count(p)
		p99 := percentile(p.latMs, 99)
		// No growing backlog: whatever queued up during the step drains
		// within the latency limit once arrivals stop.
		drain := p.elapsed - stepDur
		pass := p.failed == 0 && p99 <= sp.p99Limit && drain.Seconds()*1e3 <= sp.p99Limit
		rep.notes = append(rep.notes, fmt.Sprintf("ladder %5.0f req/s: %4d requests, p99 %7.2f ms, backlog max %3d, drain %6.1f ms: %s",
			rate, p.attempted, p99, p.backlogMax, drain.Seconds()*1e3, passFail(pass)))
		return pass
	}
	for k := 0; k < ladderSteps; k++ {
		rate := sp.nominal * math.Pow(ladderRatio, float64(k))
		if !step(rate) && !step(rate) {
			break
		}
		slo = rate
	}
	rep.firstBad = chk.firstBad

	rep.add("setup_s", median(setups), "s")
	rep.add("capacity_qps", float64(closed.succeeded())/closed.elapsed.Seconds(), "1/s")
	rep.add("p50_ms", percentile(open.latMs, 50), "ms")
	rep.add("p99_ms", windowedP99(open.latMs), "ms")
	rep.add("slo_qps", slo, "1/s")
	rep.add("hit_ratio", open.hitRatio(), "ratio")
	rep.add("f1", open.f1(), "ratio")
	rep.add("success_ratio", 1-ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	rep.add("peak_rss_mb", peakRSSMB(), "MB")
	rep.addExtra("fail_ratio", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	rep.addExtra("open_samples", float64(len(open.latMs)), "count")
	rep.addExtra("open_rate", sp.nominal, "1/s")
	rep.addExtra("p99_limit_ms", sp.p99Limit, "ms")
	rep.notes = append(rep.notes, fmt.Sprintf("setups %v s; %d connections", setups, conns))
	return rep, nil
}

// tracedRun compares the same stream on two stacks: one exactly as
// cacheserve wires it, one with every seam wrapped. Both run a warm-up
// and a closed-loop phase of sp.tracedJobs jobs; the untraced stack then
// runs an open-loop phase for the generator's own figures. Per-layer
// metrics come from the traced phase, runtime figures from the untraced
// one.
func tracedRun(w *Workload, seed int64, budget time.Duration) (*report, error) {
	sp := w.Spec
	answers := newAnswerBook()
	conns := runtime.NumCPU()
	rep := &report{}

	// Untraced.
	st, _, err := setup(w, answers, nil)
	if err != nil {
		return nil, err
	}
	chk := newChecker(w, answers)
	d := newDriver(w, st.URL, chk, conns)
	warm, plain, open := &phase{}, &phase{}, &phase{}
	d.closed(warm, 0, warmupJobs(sp))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d.closed(plain, 0, sp.tracedJobs)
	runtime.ReadMemStats(&m1)
	runtime.GC()
	d.open(open, sp.nominal, scale(budget, openShare))
	d.close()
	st.Close()
	rep.count(warm, plain, open)
	rep.firstBad = chk.firstBad

	// Traced: the same stream from the same seed.
	wt, err := NewWorkload(sp.name, seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	st, _, err = setup(wt, answers, tr)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	chk = newChecker(wt, answers)
	d = newDriver(wt, st.URL, chk, conns)
	defer d.close()
	twarm, traced := &phase{}, &phase{}
	d.closed(twarm, 0, warmupJobs(sp))
	runtime.GC()
	tr.reset()
	reg0, enc0, srch0 := st.Registry.Stats(), st.encodeStats(), st.searchStats()
	d.closed(traced, 0, sp.tracedJobs)
	a := tr.snapshot()
	reg1, enc1, srch1 := st.Registry.Stats(), st.encodeStats(), st.searchStats()
	rep.count(twarm, traced)
	if rep.firstBad == "" {
		rep.firstBad = chk.firstBad
	}
	if a.violations > 0 && rep.firstBad == "" {
		rep.firstBad = fmt.Sprintf("trace closure: %d requests have child spans outside their handler span", a.violations)
	}

	reqs := float64(plain.succeeded())
	rep.add("server.self_us.mean", mean(a.selfUs), "us")
	rep.add("server.self_us.p99", percentile(a.selfUs, 99), "us")
	rep.add("batcher.encode_wait_us", ratio(float64(a.encodeWait)/1e3, float64(a.encodeCalls)), "us")
	rep.add("batcher.mean_batch", batchMean(enc0, enc1), "count")
	rep.add("embed.encode_us", ratio(float64(a.innerNs)/1e3, float64(a.innerTexts)), "us")
	rep.add("embed.texts", float64(a.innerTexts), "count")
	rep.add("core.encodes_per_req", ratio(float64(a.encodeCalls), float64(a.requests)), "count")
	rep.add("search.us.mean", mean(a.searchUs), "us")
	rep.add("search.us.p99", percentile(a.searchUs, 99), "us")
	rep.add("search.mean_batch", batchMean(srch0, srch1), "count")
	rep.add("search.coalesced", float64(srch1.Coalesced-srch0.Coalesced), "count")
	rep.add("search.candidates_per_req", ratio(float64(a.candidates), float64(len(a.searchUs))), "count")
	rep.add("registry.activations", float64(reg1.Activations-reg0.Activations), "count")
	rep.add("registry.revivals", float64(reg1.Reloads-reg0.Reloads), "count")
	rep.add("registry.evictions", float64(reg1.Evictions-reg0.Evictions), "count")
	rep.addExtra("registry.activate_ms.p50", percentile(a.activateMs, 50), "ms")
	rep.addExtra("registry.activate_ms.p99", percentile(a.activateMs, 99), "ms")
	rep.addExtra("registry.evict_ms", mean(a.evictMs), "ms")
	rep.add("store.bytes_written", float64(a.bytesWritten), "B")
	rep.add("store.bytes_read", float64(a.bytesRead), "B")
	rep.add("store.fsyncs", float64(a.fsyncs), "count")
	rep.addExtra("store.io_ms", float64(a.ioNs)/1e6, "ms")
	rep.add("store.bytes_per_entry", ratio(float64(a.bytesWritten), float64(a.persisted)), "B")
	rep.add("upstream.calls", float64(a.upCalls), "count")
	rep.add("upstream.us", ratio(float64(a.upNs)/1e3, float64(a.upCalls)), "us")
	rep.addExtra("upstream.sim_ms", ratio(float64(a.upSimNs)/1e6, float64(a.upCalls)), "ms")
	rep.add("runtime.allocs_per_req", ratio(float64(m1.Mallocs-m0.Mallocs), reqs), "count")
	rep.add("runtime.alloc_bytes_per_req", ratio(float64(m1.TotalAlloc-m0.TotalAlloc), reqs), "B")
	rep.add("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")
	rep.addExtra("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	rep.add("gen.lag_p99_ms", percentile(open.lagMs, 99), "ms")
	rep.add("gen.backlog_max", float64(open.backlogMax), "count")
	plainQPS := reqs / plain.elapsed.Seconds()
	tracedQPS := float64(traced.succeeded()) / traced.elapsed.Seconds()
	rep.add("trace.overhead", ratio(tracedQPS, plainQPS), "ratio")
	rep.addExtra("trace.requests", float64(a.requests), "count")
	rep.addExtra("trace.unmatched_encodes", float64(a.unmatched), "count")
	rep.notes = append(rep.notes, fmt.Sprintf("untraced %.1f req/s, traced %.1f req/s over %d jobs; %d connections",
		plainQPS, tracedQPS, sp.tracedJobs, conns))
	return rep, nil
}

func batchMean(a, b server.BatcherStats) float64 {
	return ratio(float64(b.Requests-a.Requests), float64(b.Batches-a.Batches))
}

func scale(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * share)
}

// median returns the middle of xs, averaging the two middle values when
// the count is even.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// p99Window is the fewest samples a p99 is taken over: ten beyond it.
const p99Window = 1000

// windowedP99 splits xs, in arrival order, into consecutive windows of
// at least p99Window samples and returns the median of their p99s, so a
// single stall inside the run moves one window rather than the result.
func windowedP99(xs []float64) float64 {
	n := max(len(xs)/p99Window, 1)
	p99s := make([]float64, n)
	for i := range p99s {
		p99s[i] = percentile(xs[i*len(xs)/n:(i+1)*len(xs)/n], 99)
	}
	return median(p99s)
}

func passFail(ok bool) string {
	if ok {
		return "pass"
	}
	return "fail"
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// print writes the human-readable table, then the JSON result as the
// last line.
func (r *report) print(f *os.File) {
	all := append(append([]metric(nil), r.metrics...), r.extra...)
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	for _, m := range all {
		fmt.Fprintf(f, "%-28s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(f, "%-28s %14d\n%-28s %14d\n", "attempted", r.attempted, "failed", r.failed)
	if r.firstBad != "" {
		fmt.Fprintln(f, "first failure:", r.firstBad)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]value)}
	for _, m := range r.metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintln(f, string(b))
}
