package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"repro/internal/dataset"
)

// Entry is one query a tenant has cached before the run starts. Parent
// indexes the tenant's entry this one follows up in a conversation, or is
// -1 for a standalone query.
type Entry struct {
	Query  string
	Parent int
}

// Tenant is one user's identity and pre-populated cache contents.
type Tenant struct {
	ID      string
	Entries []Entry
}

// Request is one POST /v1/query body plus its ground truth.
type Request struct {
	User    string
	Session string
	Query   string
	// Dup is the ground truth: the query repeats (exactly or as a
	// paraphrase, and under the same conversation parent) a query the
	// tenant had cached before the run.
	Dup bool
}

// Job is a unit of traffic: a standalone query, or a conversation whose
// turns are sent in order on one connection, each after the previous
// reply.
type Job []Request

// spec describes one workload: who the tenants are, what they hold, how
// traffic picks among them and which kinds of query it sends.
type spec struct {
	name string
	// tenants and entriesFor size the population: entriesFor(i, rng)
	// is tenant i's standalone intent count; convs of those intents also
	// carry one cached follow-up each.
	tenants    int
	entriesFor func(i int, rng *rand.Rand) int
	convs      int
	// mix weights the job kinds, indexed by the kind constants below.
	mix [numKinds]float64
	// picker binds a tenant draw to the stream's rng.
	picker func(rng *rand.Rand) func() int
	// names returns the tenant IDs (nil: "user-%03d").
	names func(n int) []string
	// maxTenants and persist override cacheserve's -max-tenants and
	// -persist-dir defaults (0 / "").
	maxTenants int
	persist    bool

	// Driver settings. nominal is the open-loop rate in requests per
	// second (about 40% of the closed-loop capacity measured when the
	// workload was defined); p99Limit is the latency limit the rate
	// ladder holds the p99 to; tracedJobs sizes the fixed-length closed
	// phases of a traced run.
	nominal    float64
	p99Limit   float64 // ms
	tracedJobs int
}

// Job kinds.
const (
	kindExact      = iota // a cached standalone query resubmitted verbatim
	kindParaphrase        // a fresh realisation of a cached standalone intent
	kindSessMatch         // parent turn + cached follow-up, under the matching parent
	kindSessFresh         // a fresh parent + a cached follow-up's text: must miss
	kindFresh             // a new intent: misses and is inserted
	numKinds
)

// followUps are generic conversation follow-ups: the same text is
// meaningful under many parents, so only the context chain tells a
// repeat from a new question.
var followUps = []string{
	"make it shorter",
	"now explain it to a child",
	"give me two examples",
	"what are the risks",
	"turn that into a table",
	"how would this change in winter",
	"rewrite it more formally",
	"what should i do first",
	"compare it with the alternative",
	"list the steps again",
	"summarize that in one line",
	"what does it cost",
}

// openers paraphrase a follow-up the way the contextual dataset does:
// the same request with a different opening.
var openers = []string{"please", "ok now", "next", "could you", "also"}

var specs = map[string]*spec{
	// chat: many small tenants under the paper's traffic mix; the fixed
	// per-request path (HTTP, encode, context check, fill) dominates.
	"chat": {
		name:       "chat",
		tenants:    200,
		entriesFor: func(int, *rand.Rand) int { return 24 },
		convs:      8,
		// Request shares: 22% exact and 9% paraphrased repeats (31%),
		// 10% in matching-parent conversations, 10% in fresh-parent
		// conversations, 49% new queries. Conversation jobs carry two
		// requests, so their job weights are halved.
		mix:        [numKinds]float64{0.22, 0.09, 0.05, 0.05, 0.49},
		picker:     uniformPick(200),
		nominal:    440,
		p99Limit:   25,
		tracedJobs: 3000,
	},
	// hot-tenant: a Zipf draw sends about three quarters of the traffic
	// to one tenant holding a full 4096-entry cache; search dominates.
	"hot-tenant": {
		name:    "hot-tenant",
		tenants: 32,
		entriesFor: func(i int, _ *rand.Rand) int {
			if i == 0 {
				return 4096
			}
			return 32
		},
		mix:        [numKinds]float64{0.75, 0.10, 0, 0, 0.15},
		picker:     zipfPick(2.5, 32),
		nominal:    170,
		p99Limit:   40,
		tracedJobs: 1000,
	},
	// churn: 96 tenants of 192 entries with 32 resident; 2% of requests
	// address one of the 80 cold tenants, so revival and eviction
	// persistence run on the request path. Every tenant has the same
	// size so each revival costs the same.
	"churn": {
		name:       "churn",
		tenants:    96,
		entriesFor: func(int, *rand.Rand) int { return 192 },
		mix:        [numKinds]float64{0.60, 0.10, 0, 0, 0.30},
		picker:     churnPick,
		names:      churnNames,
		maxTenants: 32,
		persist:    true,
		nominal:    300,
		p99Limit:   200,
		tracedJobs: 1500,
	},
}

func uniformPick(n int) func(*rand.Rand) func() int {
	return func(rng *rand.Rand) func() int {
		return func() int { return rng.Intn(n) }
	}
}

// zipfPick draws tenant indexes from a Zipf(s) over n tenants, the
// tenant draw of loadgen's hotspot scenario.
func zipfPick(s float64, n int) func(*rand.Rand) func() int {
	return func(rng *rand.Rand) func() int {
		z := rand.NewZipf(rng, s, 1, uint64(n-1))
		return func() int { return int(z.Uint64()) }
	}
}

// churn layout: 16 registry shards (cacheserve's -shards default) with
// six tenants each. The first tenant of every shard is hot; the other
// five are cold. With two resident slots per shard (-max-tenants 32),
// the hot tenant stays resident and the second slot rotates among the
// cold ones.
const (
	churnShards    = 16
	churnPerShard  = 6
	churnColdShare = 0.02
)

// churnNames returns 96 tenant IDs, six per registry shard, ordered so
// that index s (s < 16) is shard s's hot tenant. The shard is the
// registry's fnv-32a hash of the ID modulo the shard count; should the
// registry change its hash, the hot set merely stops being one per
// shard.
func churnNames(int) []string {
	byShard := make([][]string, churnShards)
	for i, placed := 0, 0; placed < churnShards*churnPerShard; i++ {
		id := fmt.Sprintf("tenant-%03d", i)
		h := fnv.New32a()
		h.Write([]byte(id))
		s := h.Sum32() % churnShards
		if len(byShard[s]) < churnPerShard {
			byShard[s] = append(byShard[s], id)
			placed++
		}
	}
	names := make([]string, 0, churnShards*churnPerShard)
	for rank := 0; rank < churnPerShard; rank++ {
		for s := 0; s < churnShards; s++ {
			names = append(names, byShard[s][rank])
		}
	}
	return names
}

// churnPick sends churnColdShare of the jobs to a uniformly drawn cold
// tenant and the rest to a uniformly drawn hot one.
func churnPick(rng *rand.Rand) func() int {
	return func() int {
		if rng.Float64() < churnColdShare {
			return churnShards + rng.Intn(churnShards*(churnPerShard-1))
		}
		return rng.Intn(churnShards)
	}
}

// tenantModel is the generator's private view of one tenant: the intents
// behind its cached entries, so it can paraphrase them.
type tenantModel struct {
	intents []dataset.Intent
	texts   []string // cached realisation of each intent
	convs   []conv
}

type conv struct {
	parent int    // index into intents
	follow string // the cached follow-up's text
}

// Workload is a generated population plus a deterministic request
// stream. The stream is produced lazily, one job at a time, in the same
// order for the same seed no matter which connection takes which job.
type Workload struct {
	Spec    *spec
	Tenants []Tenant

	mu     sync.Mutex
	rng    *rand.Rand
	gen    *dataset.Generator
	pick   func() int
	models []tenantModel
	cum    [numKinds]float64
	jobs   int
}

// NewWorkload generates the named workload's population and positions
// its stream at the first job. Everything derives from seed.
func NewWorkload(name string, seed int64) (*Workload, error) {
	sp, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return newWorkload(sp, seed), nil
}

func newWorkload(sp *spec, seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	cfg := dataset.DefaultConfig()
	cfg.Seed = seed
	w := &Workload{Spec: sp, rng: rng, gen: dataset.NewGenerator(cfg, rng)}
	names := make([]string, sp.tenants)
	if sp.names != nil {
		names = sp.names(sp.tenants)
	} else {
		for i := range names {
			names[i] = fmt.Sprintf("user-%03d", i)
		}
	}
	w.Tenants = make([]Tenant, sp.tenants)
	w.models = make([]tenantModel, sp.tenants)
	for i := range w.Tenants {
		n := sp.entriesFor(i, rng)
		m := &w.models[i]
		t := &w.Tenants[i]
		t.ID = names[i]
		for j := 0; j < n; j++ {
			it := w.gen.NewIntent(j)
			text := w.gen.Realize(it)
			m.intents = append(m.intents, it)
			m.texts = append(m.texts, text)
			t.Entries = append(t.Entries, Entry{Query: text, Parent: -1})
		}
		for j := 0; j < sp.convs && j < n; j++ {
			c := conv{parent: j, follow: followUps[rng.Intn(len(followUps))]}
			m.convs = append(m.convs, c)
			t.Entries = append(t.Entries, Entry{Query: c.follow, Parent: j})
		}
	}
	w.pick = sp.picker(rng)
	total := 0.0
	for k, p := range sp.mix {
		total += p
		w.cum[k] = total
	}
	for k := range w.cum {
		w.cum[k] /= total
	}
	return w
}

// Next returns the stream's next job.
func (w *Workload) Next() Job {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.jobs++
	rng := w.rng
	ti := w.pick()
	user := w.Tenants[ti].ID
	m := &w.models[ti]
	u := rng.Float64()
	kind := 0
	for kind < numKinds-1 && u >= w.cum[kind] {
		kind++
	}
	if (kind == kindSessMatch || kind == kindSessFresh) && len(m.convs) == 0 {
		kind = kindFresh
	}
	switch kind {
	case kindExact:
		i := rng.Intn(len(m.texts))
		return Job{{User: user, Query: m.texts[i], Dup: true}}
	case kindParaphrase:
		i := rng.Intn(len(m.intents))
		return Job{{User: user, Query: w.gen.Realize(m.intents[i]), Dup: true}}
	case kindSessMatch:
		c := m.convs[rng.Intn(len(m.convs))]
		parent := m.texts[c.parent]
		if rng.Intn(2) == 0 {
			parent = w.gen.Realize(m.intents[c.parent])
		}
		follow := c.follow
		if rng.Intn(2) == 0 {
			follow = openers[rng.Intn(len(openers))] + " " + follow
		}
		sess := fmt.Sprintf("s%d", w.jobs)
		return Job{
			{User: user, Session: sess, Query: parent, Dup: true},
			{User: user, Session: sess, Query: follow, Dup: true},
		}
	case kindSessFresh:
		c := m.convs[rng.Intn(len(m.convs))]
		parent := w.gen.Realize(w.gen.NewIntent(-1))
		follow := c.follow
		if rng.Intn(2) == 0 {
			follow = openers[rng.Intn(len(openers))] + " " + follow
		}
		sess := fmt.Sprintf("s%d", w.jobs)
		return Job{
			{User: user, Session: sess, Query: parent},
			{User: user, Session: sess, Query: follow},
		}
	default:
		return Job{{User: user, Query: w.gen.Realize(w.gen.NewIntent(-1))}}
	}
}
