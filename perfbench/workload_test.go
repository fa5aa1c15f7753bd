package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// streamDigest hashes a workload's population and the first jobs of its
// request stream.
func streamDigest(t *testing.T, name string, seed int64, jobs int) string {
	t.Helper()
	w, err := NewWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, tn := range w.Tenants {
		fmt.Fprintf(h, "tenant %q\n", tn.ID)
		for _, e := range tn.Entries {
			fmt.Fprintf(h, "entry %d %q\n", e.Parent, e.Query)
		}
	}
	for i := 0; i < jobs; i++ {
		for _, r := range w.Next() {
			fmt.Fprintf(h, "req %q %q %q %v\n", r.User, r.Session, r.Query, r.Dup)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestStreamDeterministic(t *testing.T) {
	for _, name := range []string{"chat", "hot-tenant", "churn"} {
		a := streamDigest(t, name, 7, 3000)
		if b := streamDigest(t, name, 7, 3000); a != b {
			t.Errorf("%s: seed 7 gave two different streams (%s, %s)", name, a, b)
		}
		if c := streamDigest(t, name, 8, 3000); a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same stream %s", name, a)
		}
	}
}

// TestStreamMix checks each workload's stream has the traffic its
// documentation promises: chat carries conversations, hot-tenant sends
// most jobs to tenant 0, churn sends its stated share to cold tenants.
func TestStreamMix(t *testing.T) {
	counts := func(name string, jobs int) (map[string]int, int, int) {
		w, err := NewWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		byUser := map[string]int{}
		requests, dups := 0, 0
		for i := 0; i < jobs; i++ {
			job := w.Next()
			byUser[job[0].User]++
			for _, r := range job {
				requests++
				if r.Dup {
					dups++
				}
			}
		}
		return byUser, requests, dups
	}
	const jobs = 20000
	_, requests, dups := counts("chat", jobs)
	if share := float64(dups) / float64(requests); share < 0.36 || share > 0.46 {
		t.Errorf("chat: %.3f of requests repeat a cached query, want about 0.41 (31%% repeats + 10%% matching conversations)", share)
	}
	if requests < jobs*105/100 {
		t.Errorf("chat: %d requests for %d jobs, want conversations adding about 10%%", requests, jobs)
	}
	byUser, _, _ := counts("hot-tenant", jobs)
	if share := float64(byUser["user-000"]) / jobs; share < 0.70 || share > 0.80 {
		t.Errorf("hot-tenant: hot tenant draws %.3f of jobs, want about 0.75", share)
	}
	w, _ := NewWorkload("churn", 3)
	byUser, _, _ = counts("churn", jobs)
	cold := 0
	for _, tn := range w.Tenants[churnShards:] {
		cold += byUser[tn.ID]
	}
	if share := float64(cold) / jobs; share < churnColdShare*0.8 || share > churnColdShare*1.2 {
		t.Errorf("churn: cold tenants draw %.3f of jobs, want about %.2f", share, churnColdShare)
	}
}

// fakeServer answers every query as a miss with the upstream's answer,
// recording when each request arrived and was answered.
type fakeServer struct {
	answers *answerBook
	mu      sync.Mutex
	log     map[string][]span // session → turns in arrival order
}

func (f *fakeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now().UnixNano()
	var q queryBody
	body, _ := io.ReadAll(r.Body)
	if err := json.Unmarshal(body, &q); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	time.Sleep(200 * time.Microsecond)
	json.NewEncoder(w).Encode(server.QueryResponse{Response: f.answers.get(q.Query)})
	if q.Session != "" {
		f.mu.Lock()
		f.log[q.Session] = append(f.log[q.Session], span{start, time.Now().UnixNano()})
		f.mu.Unlock()
	}
}

// TestSessionTurnsInOrder drives chat's stream against a fake server and
// checks every conversation's turns arrive in order, each after the
// previous turn was answered.
func TestSessionTurnsInOrder(t *testing.T) {
	w, err := NewWorkload("chat", 5)
	if err != nil {
		t.Fatal(err)
	}
	answers := newAnswerBook()
	fs := &fakeServer{answers: answers, log: map[string][]span{}}
	hs := httptest.NewServer(fs)
	defer hs.Close()
	d := newDriver(w, hs.URL, newChecker(w, answers), 2)
	defer d.close()
	p := &phase{}
	d.closed(p, 0, 400)
	if p.failed > 0 || d.chk.firstBad != "" {
		t.Fatalf("%d failures: %s", p.failed, d.chk.firstBad)
	}
	if len(fs.log) == 0 {
		t.Fatal("no conversations in 400 chat jobs")
	}
	for sess, turns := range fs.log {
		if len(turns) != 2 {
			t.Errorf("session %s: %d turns, want 2", sess, len(turns))
			continue
		}
		if turns[1].start < turns[0].end {
			t.Errorf("session %s: second turn arrived before the first was answered", sess)
		}
	}
}

// TestChecker pins the correctness rules: tenant isolation and answers
// equal to the upstream's.
func TestChecker(t *testing.T) {
	w := &Workload{Tenants: []Tenant{
		{ID: "a", Entries: []Entry{{Query: "alpha question", Parent: -1}}},
		{ID: "b", Entries: []Entry{{Query: "beta question", Parent: -1}}},
	}}
	answers := newAnswerBook()
	c := newChecker(w, answers)
	req := Request{User: "a", Query: "alpha questions"}
	cases := []struct {
		name string
		resp server.QueryResponse
		ok   bool
	}{
		{"miss", server.QueryResponse{Response: answers.get("alpha questions")}, true},
		{"miss with a wrong answer", server.QueryResponse{Response: "nope"}, false},
		{"hit on own entry", server.QueryResponse{Hit: true, Matched: "alpha question", Response: answers.get("alpha question")}, true},
		{"hit on another tenant's entry", server.QueryResponse{Hit: true, Matched: "beta question", Response: answers.get("beta question")}, false},
		{"hit with the probe's answer", server.QueryResponse{Hit: true, Matched: "alpha question", Response: answers.get("alpha questions")}, false},
	}
	for _, tc := range cases {
		if got := c.check(req, &tc.resp) == ""; got != tc.ok {
			t.Errorf("%s: check ok = %v, want %v", tc.name, got, tc.ok)
		}
	}
}

// TestUnion pins the self-time arithmetic and the closure check.
func TestUnion(t *testing.T) {
	spans := []span{{10, 20}, {15, 30}, {40, 50}, {42, 45}}
	covered, ok := union(spans, 0, 100)
	if covered != 30 || !ok {
		t.Errorf("union = %d, %v; want 30, true", covered, ok)
	}
	if _, ok := union([]span{{90, 110}}, 0, 100); ok {
		t.Error("a span past the handler's end passed the closure check")
	}
	if got := windowedP99([]float64{1, 2, 3}); got != 3 {
		t.Errorf("windowedP99 of three samples = %v, want 3", got)
	}
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i % 1000)
	}
	xs[10] = 1e9 // one stall in the first window
	if got := windowedP99(xs); got != 989 {
		t.Errorf("windowedP99 = %v, want 989", got)
	}
}

// TestTracedStack runs a small persisting workload through a traced
// stack: every answer must check out, every traced request must close,
// and revival and eviction must show in the registry and store figures;
// without persistence those figures must stay zero.
func TestTracedStack(t *testing.T) {
	for _, persist := range []bool{true, false} {
		sp := &spec{
			name:       "tiny",
			tenants:    24,
			entriesFor: func(int, *rand.Rand) int { return 12 },
			convs:      2,
			mix:        [numKinds]float64{0.4, 0.1, 0.1, 0.1, 0.3},
			picker:     uniformPick(24),
			tracedJobs: 150,
		}
		if persist {
			sp.maxTenants, sp.persist = 4, true
		}
		w := newWorkload(sp, 1)
		answers := newAnswerBook()
		tr := newTracer()
		st, _, err := setup(w, answers, tr)
		if err != nil {
			t.Fatal(err)
		}
		tr.reset()
		reg0 := st.Registry.Stats()
		d := newDriver(w, st.URL, newChecker(w, answers), 2)
		p := &phase{}
		d.closed(p, 0, sp.tracedJobs)
		d.close()
		st.Close()
		a := tr.snapshot()
		reg := st.Registry.Stats()
		if p.failed > 0 || d.chk.firstBad != "" {
			t.Fatalf("persist=%v: %d failures: %s", persist, p.failed, d.chk.firstBad)
		}
		if a.requests != p.attempted || a.violations > 0 || a.unmatched > 0 {
			t.Errorf("persist=%v: traced %d of %d requests, %d closure violations, %d unmatched encodes",
				persist, a.requests, p.attempted, a.violations, a.unmatched)
		}
		revived, evicted := reg.Reloads-reg0.Reloads, reg.Evictions-reg0.Evictions
		if persist && (revived == 0 || evicted == 0 || a.bytesWritten == 0 || a.bytesRead == 0 || a.fsyncs == 0 || len(a.activateMs) == 0 || len(a.evictMs) == 0) {
			t.Errorf("persist=true: revivals %d, evictions %d, store written %d read %d fsyncs %d, spans activate %d evict %d; want all non-zero",
				revived, evicted, a.bytesWritten, a.bytesRead, a.fsyncs, len(a.activateMs), len(a.evictMs))
		}
		if !persist && (revived != 0 || evicted != 0 || a.bytesWritten != 0 || a.bytesRead != 0 || a.fsyncs != 0) {
			t.Errorf("persist=false: revivals %d, evictions %d, store written %d read %d fsyncs %d; want all zero",
				revived, evicted, a.bytesWritten, a.bytesRead, a.fsyncs)
		}
	}
}
