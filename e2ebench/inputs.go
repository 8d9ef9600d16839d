package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Job is one synthetic task of a workload: the parameters
// Scenario.StartSyntheticJob takes, plus the owning user.
type Job struct {
	User       string
	Name       string
	IPC        float64
	MemRefsPKI float64
	HotMB      float64
	WarmMB     float64
}

// Churn is one refresh's task turnover: jobs (by index into
// Inputs.Jobs) that exit before the refresh, and jobs that start.
type Churn struct {
	Kill  []int
	Start []int
}

// Query tiers, named by the store tier the query's step selects.
const (
	TierRaw = "raw"
	Tier10s = "10s"
	Tier1m  = "1m"
)

// Query is one /api/v1/query request of the pool. Job indexes the
// task a raw query reads.
type Query struct {
	Tier string
	Job  int
	Expr string
	From float64
	To   float64
	Step float64
}

// Due is one scheduled request: a /metrics scrape (Query < 0) or a
// query of Inputs.Queries.
type Due struct {
	At    time.Duration
	Query int
}

// History describes the store's prior boot: History.Jobs tasks
// (indices into Inputs.Jobs) recorded every Interval for Refreshes
// refreshes. Seed drives the recorded counter values.
type History struct {
	Jobs      []int
	Interval  time.Duration
	Refreshes int
	Seed      int64
}

// Horizon is the simulated time the prior boot covers.
func (h History) Horizon() time.Duration { return time.Duration(h.Refreshes) * h.Interval }

// Inputs is everything a run feeds the pipeline. It is a pure function
// of (workload spec, seed, phase length), so the same seed always
// produces the same load.
type Inputs struct {
	Jobs    []Job
	Initial int // Jobs[:Initial] run from the start
	Churn   []Churn
	History History
	// Queries is the pool of distinct queries the schedule draws from;
	// each has a reference answer computed in setup.
	Queries []Query
	// Requests is the request client's open-loop schedule, by due time.
	Requests []Due
}

var users = []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"}

func genJob(rng *rand.Rand, i int) Job {
	// IPC and memory appetite are drawn independently, so the job mix
	// covers cache-resident compute jobs as well as memory-bound ones.
	hot := 0.25 + rng.Float64()*1.75
	return Job{
		User:       users[rng.Intn(len(users))],
		Name:       fmt.Sprintf("job%05d", i),
		IPC:        0.2 + rng.Float64()*2.8,
		MemRefsPKI: 20 + rng.Float64()*380,
		HotMB:      hot,
		WarmMB:     hot * (1 + rng.Float64()*15),
	}
}

// GenInputs derives the run's inputs from the seed. Each input family
// draws from its own stream, so e.g. a longer phase adds scrapes
// without changing the job mix.
func GenInputs(spec Spec, seed int64, phase time.Duration) *Inputs {
	stream := func(k int64) *rand.Rand { return rand.New(rand.NewSource(seed*7919 + k)) }
	in := &Inputs{Initial: spec.Tasks}

	jobs := stream(1)
	for i := 0; i < spec.Tasks; i++ {
		in.Jobs = append(in.Jobs, genJob(jobs, i))
	}

	// Churn: before every refresh up to ChurnMax running jobs exit and
	// as many new ones start, so the task count stays level.
	refreshes := int(phase/spec.Period) + 2
	if spec.ChurnMax > 0 {
		churn := stream(2)
		live := make([]int, 0, spec.Tasks)
		for i := 0; i < spec.Tasks; i++ {
			live = append(live, i)
		}
		for r := 0; r < refreshes; r++ {
			var c Churn
			n := churn.Intn(spec.ChurnMax + 1)
			for k := 0; k < n && len(live) > 0; k++ {
				at := churn.Intn(len(live))
				c.Kill = append(c.Kill, live[at])
				live[at] = live[len(live)-1]
				live = live[:len(live)-1]
				id := len(in.Jobs)
				in.Jobs = append(in.Jobs, genJob(churn, id))
				c.Start = append(c.Start, id)
			}
			live = append(live, c.Start...)
			in.Churn = append(in.Churn, c)
		}
	}

	in.History = History{Interval: spec.HistoryInterval, Refreshes: spec.HistoryRefreshes, Seed: seed*7919 + 3}
	for i := 0; i < spec.HistoryTasks && i < spec.Tasks; i++ {
		in.History.Jobs = append(in.History.Jobs, i)
	}

	in.Queries = genQueries(stream(5), spec, in.History.Horizon().Seconds())

	// Scrapes and queries are due on a fixed open-loop schedule: at
	// the spec's offsets in every refresh period, with seeded jitter of
	// up to 2% of the period. Queries cycle through a seeded
	// permutation of the pool, so every pool entry runs equally often.
	sched := stream(4)
	order := sched.Perm(len(in.Queries))
	nq := 0
	for t := time.Duration(0); t < phase; t += spec.Period {
		at := func(frac float64) time.Duration {
			return t + time.Duration(frac*float64(spec.Period)) + time.Duration(sched.Int63n(int64(spec.Period/50)+1))
		}
		for _, f := range spec.ScrapeAt {
			in.Requests = append(in.Requests, Due{At: at(f), Query: -1})
		}
		for _, f := range spec.QueryAt {
			in.Requests = append(in.Requests, Due{At: at(f), Query: order[nq%len(order)]})
			nq++
		}
	}
	sort.SliceStable(in.Requests, func(i, j int) bool { return in.Requests[i].At < in.Requests[j].At })
	return in
}

// queryPool is the number of distinct queries per run: a third per
// tier, every template and step of a tier equally often.
const queryPool = 36

var (
	exprs10s = []string{"rate(INSTRUCTIONS) by user", "rate(CYCLES) by user", "delta(CACHE_MISSES) by user"}
	exprs1m  = []string{"topk(5, rate(CYCLES))", "topk(3, rate(INSTRUCTIONS)) by user", "topk(5, delta(INSTRUCTIONS) / delta(CYCLES))"}
	steps10s = []float64{10, 30}
	steps1m  = []float64{60, 300}
)

// genQueries draws the query pool. The seed picks pids and range
// positions; range lengths are fixed per tier, so the pool's cost does
// not swing with the seed. Ranges lie inside the prior boot's history,
// sealed before the timed phase, and end two minutes before it does,
// so every queried 1m bucket was flushed.
func genQueries(rng *rand.Rand, spec Spec, horizon float64) []Query {
	usable := horizon - 120
	at := func(length float64) (float64, float64) {
		length = min(length, usable)
		from := float64(int(rng.Float64() * (usable - length)))
		return from, from + length
	}
	var out []Query
	for i := 0; i < queryPool; i++ {
		k := i / 3
		switch i % 3 {
		case 0:
			q := Query{Tier: TierRaw, Job: rng.Intn(spec.HistoryTasks)}
			q.From, q.To = at(600)
			out = append(out, q)
		case 1:
			q := Query{Tier: Tier10s, Expr: exprs10s[k%len(exprs10s)], Step: steps10s[k/len(exprs10s)%len(steps10s)]}
			q.From, q.To = at(1800)
			out = append(out, q)
		default:
			// topk over the whole sealed horizon.
			out = append(out, Query{Tier: Tier1m, Expr: exprs1m[k%len(exprs1m)],
				Step: steps1m[k/len(exprs1m)%len(steps1m)], To: float64(int(usable))})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
