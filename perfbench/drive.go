package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/llmsim"
	"repro/internal/server"
)

// answerBook memoises the upstream's response to each query, computed by
// the benchmark's own simulator configured like cacheserve's in-process
// upstream. Responses are a pure function of the query text.
type answerBook struct {
	mu  sync.Mutex
	sim *llmsim.Service
	m   map[string]string
}

func newAnswerBook() *answerBook {
	return &answerBook{sim: llmsim.New(llmsim.DefaultConfig()), m: make(map[string]string)}
}

func (a *answerBook) get(q string) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	r, ok := a.m[q]
	if !ok {
		r, _ = a.sim.Query(q)
		a.m[q] = r
	}
	return r
}

// checker holds what a correct response may contain: per tenant, every
// query the tenant has cached or been sent (a hit may only match one of
// those), and the upstream's answer to each.
type checker struct {
	answers *answerBook

	mu       sync.Mutex
	known    map[string]map[string]bool
	firstBad string
}

func newChecker(w *Workload, answers *answerBook) *checker {
	c := &checker{answers: answers, known: make(map[string]map[string]bool)}
	for _, t := range w.Tenants {
		set := make(map[string]bool, len(t.Entries))
		for _, e := range t.Entries {
			set[e.Query] = true
		}
		c.known[t.ID] = set
	}
	return c
}

func (c *checker) sending(r Request) {
	c.mu.Lock()
	c.known[r.User][r.Query] = true
	c.mu.Unlock()
}

// check returns "" when resp is a correct answer to r: a miss carries
// the upstream's answer to the query; a hit carries the upstream's
// answer to the matched query, which the same tenant cached or sent.
func (c *checker) check(r Request, resp *server.QueryResponse) string {
	if !resp.Hit {
		if resp.Response != c.answers.get(r.Query) {
			return fmt.Sprintf("miss for %s %q: response differs from the upstream's", r.User, r.Query)
		}
		return ""
	}
	c.mu.Lock()
	own := c.known[r.User][resp.Matched]
	c.mu.Unlock()
	switch {
	case resp.Degraded:
		return fmt.Sprintf("hit for %s %q served degraded", r.User, r.Query)
	case !own:
		return fmt.Sprintf("hit for %s %q matched %q, which this tenant never cached", r.User, r.Query, resp.Matched)
	case resp.Response != c.answers.get(resp.Matched):
		return fmt.Sprintf("hit for %s %q: response differs from the upstream's answer to %q", r.User, r.Query, resp.Matched)
	}
	return ""
}

func (c *checker) fail(msg string) {
	c.mu.Lock()
	if c.firstBad == "" {
		c.firstBad = msg
	}
	c.mu.Unlock()
}

// phase accumulates one measured phase.
type phase struct {
	mu         sync.Mutex
	latMs      []float64 // successful requests
	attempted  int
	failed     int
	hits       int
	tp, fp, fn int
	lagMs      []float64 // open loop: dispatch time minus due time
	backlogMax int
	elapsed    time.Duration
}

func (p *phase) record(r Request, hit, ok bool, lat time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if !ok {
		p.failed++
		return
	}
	p.latMs = append(p.latMs, float64(lat)/1e6)
	if hit {
		p.hits++
	}
	switch {
	case hit && r.Dup:
		p.tp++
	case hit:
		p.fp++
	case r.Dup:
		p.fn++
	}
}

func (p *phase) succeeded() int { return p.attempted - p.failed }

func (p *phase) hitRatio() float64 { return ratio(float64(p.hits), float64(p.succeeded())) }

func (p *phase) f1() float64 { return ratio(float64(2*p.tp), float64(2*p.tp+p.fp+p.fn)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the q-th percentile (nearest rank) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q/100*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// driver sends a workload's stream to a stack over loopback HTTP, on at
// most conns keep-alive connections.
type driver struct {
	w     *Workload
	url   string
	hc    *http.Client
	chk   *checker
	conns int
}

func newDriver(w *Workload, url string, chk *checker, conns int) *driver {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &driver{w: w, url: url + "/v1/query", hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, chk: chk, conns: conns}
}

func (d *driver) close() { d.hc.CloseIdleConnections() }

type queryBody struct {
	User    string `json:"user"`
	Query   string `json:"query"`
	Session string `json:"session,omitempty"`
}

// send posts one request and checks the answer. A transport error, a
// non-200 status or a wrong answer is a failure.
func (d *driver) send(r Request) (hit, ok bool) {
	d.chk.sending(r)
	body, err := json.Marshal(queryBody{User: r.User, Query: r.Query, Session: r.Session})
	if err != nil {
		d.chk.fail(err.Error())
		return false, false
	}
	resp, err := d.hc.Post(d.url, "application/json", bytes.NewReader(body))
	if err != nil {
		d.chk.fail(err.Error())
		return false, false
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		d.chk.fail(err.Error())
		return false, false
	}
	if resp.StatusCode != http.StatusOK {
		d.chk.fail(fmt.Sprintf("status %d for %s %q: %s", resp.StatusCode, r.User, r.Query, raw))
		return false, false
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		d.chk.fail(fmt.Sprintf("decoding response: %v", err))
		return false, false
	}
	if bad := d.chk.check(r, &qr); bad != "" {
		d.chk.fail(bad)
		return qr.Hit, false
	}
	return qr.Hit, true
}

// runJob sends a job's turns in order, each after the previous reply,
// timing the first from due and each later one from the reply before it.
func (d *driver) runJob(job Job, due time.Time, p *phase) {
	for _, r := range job {
		hit, ok := d.send(r)
		now := time.Now()
		p.record(r, hit, ok, now.Sub(due))
		due = now
	}
}

// closed runs a closed loop: each connection sends its next job as soon
// as the previous one is answered. It stops taking jobs after jobs jobs
// when jobs > 0, otherwise once dur has passed.
func (d *driver) closed(p *phase, dur time.Duration, jobs int) {
	start := time.Now()
	until := start.Add(dur)
	var taken atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < d.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if jobs > 0 && taken.Add(1) > int64(jobs) || jobs <= 0 && time.Now().After(until) {
					return
				}
				d.runJob(d.w.Next(), time.Now(), p)
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
}

// spinWindow is how long before a due time the pacer stops sleeping and
// yields in a loop instead: timer wakeups on small VMs land up to about
// a millisecond late, which would otherwise count as server latency.
const spinWindow = 1100 * time.Microsecond

func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// open runs an open loop at rate requests per second for dur: jobs fall
// due on a fixed schedule (a job of n turns takes n slots) whether or
// not earlier ones were answered, queue in the generator while every
// connection is busy, and are timed from when they fell due.
func (d *driver) open(p *phase, rate float64, dur time.Duration) {
	type item struct {
		job Job
		due time.Time
	}
	// Sized for the whole schedule so the pacer never blocks on a slow
	// stack: the backlog is measured, not throttled.
	items := make(chan item, int(rate*dur.Seconds())+16)
	var wg sync.WaitGroup
	for c := 0; c < d.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range items {
				lag := time.Since(it.due)
				p.mu.Lock()
				p.lagMs = append(p.lagMs, float64(lag)/1e6)
				p.mu.Unlock()
				d.runJob(it.job, it.due, p)
			}
		}()
	}
	start := time.Now().Add(time.Millisecond)
	offset := 0.0
	for {
		due := start.Add(time.Duration(offset * float64(time.Second)))
		if due.Sub(start) >= dur {
			break
		}
		job := d.w.Next()
		waitUntil(due)
		p.mu.Lock()
		p.backlogMax = max(p.backlogMax, len(items))
		p.mu.Unlock()
		items <- item{job, due}
		offset += float64(len(job)) / rate
	}
	close(items)
	wg.Wait()
	p.elapsed = time.Since(start)
}
