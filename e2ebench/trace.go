package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tiptop/internal/core"
	"tiptop/internal/history"
	"tiptop/internal/hpm"
	"tiptop/internal/metrics"
	"tiptop/internal/mux"
	"tiptop/internal/query"
	"tiptop/internal/sim/machine"
	"tiptop/internal/sim/pmu"
	"tiptop/internal/sim/proc"
	"tiptop/internal/sim/sched"
	"tiptop/internal/sim/workload"
	"tiptop/internal/store"
)

// span is one timed call into a layer. Times are milliseconds since the
// phase started; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name    string  `json:"name"`
	Start   float64 `json:"start_ms"`
	End     float64 `json:"end_ms"`
	Parent  int     `json:"parent"`
	Refresh uint64  `json:"refresh"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) add(name string, start, end time.Time, parent int, refresh uint64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: ms(start.Sub(t.t0)), End: ms(end.Sub(t.t0)),
		Parent: parent, Refresh: refresh})
	return len(t.spans) - 1
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span name, every span's self time: its
// duration minus the time its children cover.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range t.spans {
		out[s.Name] = append(out[s.Name], self[i])
	}
	return out
}

// durations returns every span's duration, per name.
func (t *tracer) durations() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start)
	}
	return out
}

// timedBackend decorates an hpm.Backend, counting attaches and timing
// every counter read. The twin wraps one inside mux.Wrap (the PMU's
// view) and one outside (the engine's view).
type timedBackend struct {
	hpm.Backend
	attaches atomic.Int64
	reads    atomic.Int64
	readNS   atomic.Int64
}

func (b *timedBackend) Attach(task hpm.TaskID, events []hpm.EventDesc) (hpm.TaskCounter, error) {
	b.attaches.Add(1)
	c, err := b.Backend.Attach(task, events)
	if err != nil {
		return nil, err
	}
	return &timedCounter{TaskCounter: c, b: b}, nil
}

// snapshot returns and resets the counts since the last snapshot.
func (b *timedBackend) snapshot() (attaches, reads int64, read time.Duration) {
	return b.attaches.Swap(0), b.reads.Swap(0), time.Duration(b.readNS.Swap(0))
}

type timedCounter struct {
	hpm.TaskCounter
	b *timedBackend
}

func (c *timedCounter) note(start time.Time) {
	c.b.reads.Add(1)
	c.b.readNS.Add(int64(time.Since(start)))
}

func (c *timedCounter) Read() ([]hpm.Count, error) {
	start := time.Now()
	v, err := c.TaskCounter.Read()
	c.note(start)
	return v, err
}

func (c *timedCounter) ReadInto(dst []hpm.Count) ([]hpm.Count, error) {
	r, ok := c.TaskCounter.(hpm.CountReader)
	if !ok {
		return c.Read()
	}
	start := time.Now()
	v, err := r.ReadInto(dst)
	c.note(start)
	return v, err
}

// timedObserver decorates a core.Observer, keeping the last call's
// start and end (and, while counting, its heap allocations).
type timedObserver struct {
	o          core.Observer
	start, end time.Time
	counting   bool
	mallocs    uint64
}

func (t *timedObserver) Observe(s *core.Sample) {
	var before runtime.MemStats
	if t.counting {
		runtime.ReadMemStats(&before)
	}
	t.start = time.Now()
	t.o.Observe(s)
	t.end = time.Now()
	if t.counting {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		t.mallocs = after.Mallocs - before.Mallocs
	}
}

// SetColumns forwards column labels, which history.Recorder.Tee hands
// to a store through this decorator.
func (t *timedObserver) SetColumns(names []string) {
	if cs, ok := t.o.(interface{ SetColumns([]string) }); ok {
		cs.SetColumns(names)
	}
}

// twin is the traced run's second pipeline, composed from the packages
// the facade hides, in lockstep with the facade on the same seeded
// task set: its decorators split Monitor.SampleNow into the engine
// (core, mux, backend), the recorder and the teed store.
type twin struct {
	k        *sched.Kernel
	seed     int64
	pids     []int
	sess     *core.Session
	hist     *history.Recorder
	st       *store.Store
	dir      string
	inner    *timedBackend
	outer    *timedBackend
	histObs  *timedObserver
	storeObs *timedObserver
	seen     map[string]bool // segment files seen so far
}

func newTwin(spec Spec, in *Inputs, dir string, opt store.Options, cols []string) (*twin, error) {
	m, ok := machine.Presets()[string(spec.Machine)]
	if !ok {
		return nil, fmt.Errorf("unknown machine %q", spec.Machine)
	}
	k, err := sched.New(m, sched.Options{})
	if err != nil {
		return nil, err
	}
	// Scenario hands out per-process seeds from 2 upwards; the twin
	// does the same so both simulate identical tasks.
	tw := &twin{k: k, seed: 1, pids: make([]int, len(in.Jobs)), dir: dir}
	for i := 0; i < in.Initial; i++ {
		if err := tw.start(in, i); err != nil {
			return nil, err
		}
	}
	screen, ok := metrics.BuiltinScreens()[spec.Screen]
	if !ok {
		return nil, fmt.Errorf("unknown screen %q", spec.Screen)
	}
	tw.inner = &timedBackend{Backend: pmu.New(k)}
	tw.outer = &timedBackend{Backend: mux.Wrap(tw.inner)}
	tw.sess, err = core.NewSession(tw.outer, proc.NewSource(k), proc.NewClock(k),
		core.Options{Screen: screen, Interval: spec.Period, Registry: hpm.DefaultRegistry()})
	if err != nil {
		return nil, err
	}
	tw.hist = history.New(history.Options{})
	tw.hist.SetColumns(cols)
	tw.histObs = &timedObserver{o: tw.hist}
	tw.sess.Subscribe(tw.histObs)
	if tw.st, err = store.Open(dir, opt); err != nil {
		return nil, err
	}
	tw.storeObs = &timedObserver{o: tw.st}
	tw.hist.Tee(tw.storeObs)
	if _, err := tw.sess.Update(); err != nil {
		return nil, err
	}
	tw.inner.snapshot()
	tw.outer.snapshot()
	tw.countSegments()
	return tw, nil
}

func (tw *twin) start(in *Inputs, job int) error {
	j := in.Jobs[job]
	tw.seed++
	spin, err := workload.NewSpin(workload.Synthetic(workload.SyntheticSpec{
		Name: j.Name, IPC: j.IPC, MemRefsPKI: j.MemRefsPKI,
		HotBytes: j.HotMB * (1 << 20), WarmBytes: j.WarmMB * (1 << 20),
	}), tw.seed)
	if err != nil {
		return err
	}
	tw.pids[job] = tw.k.Spawn(j.User, j.Name, spin, nil).ID().PID
	return nil
}

func (tw *twin) churn(in *Inputs, k int) error {
	if k >= len(in.Churn) {
		return nil
	}
	for _, job := range in.Churn[k].Kill {
		if err := tw.k.Kill(tw.pids[job]); err != nil {
			return err
		}
		tw.pids[job] = 0
	}
	for _, job := range in.Churn[k].Start {
		if err := tw.start(in, job); err != nil {
			return err
		}
	}
	return nil
}

func (tw *twin) close() error {
	err := tw.sess.Close()
	if cerr := tw.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// finishTrace builds each delivered refresh's root span, from its due
// time to the last byte at the subscriber, around the sampling loop's spans of
// that refresh and the delivery. The root's self time is the part of
// the refresh no layer accounts for.
func (ph *phase) finishTrace() {
	tr := ph.p.tr
	ph.mu.Lock()
	pubs := ph.pubs
	ph.mu.Unlock()
	for v, pb := range pubs {
		if v == 0 || pb.recv.IsZero() {
			continue
		}
		root := tr.add("refresh", pb.due, pb.recv, -1, uint64(v))
		tr.add("remote.deliver", pb.pubEnd, pb.recv, root, uint64(v))
		tr.mu.Lock()
		for i := range tr.spans {
			s := &tr.spans[i]
			if s.Refresh == uint64(v) && s.Parent < 0 && loopSpans[s.Name] {
				s.Parent = root
			}
		}
		tr.mu.Unlock()
	}
}

var loopSpans = map[string]bool{"sched.wait": true, "twin.update": true, "facade.sample": true,
	"remote.wire_translate": true, "remote.publish": true}

type queryStats struct {
	compileUS []float64
	execMS    map[string][]float64
	records   []float64 // per query
	rows      int64
	points    int64
}

// twinQuery runs a query the client just sent over HTTP directly on the
// twin's store, which holds the same history: compile, execution and
// the scan's work are timed and counted from outside.
func (ph *phase) twinQuery(q Query, v url.Values) {
	tw, tr := ph.p.tw, ph.p.tr
	qs := &ph.queryStats
	if qs.execMS == nil {
		qs.execMS = map[string][]float64{}
	}
	num := func(k string) float64 { f, _ := strconv.ParseFloat(v.Get(k), 64); return f }
	so := store.QueryOptions{PID: -1, FromSeconds: num("from"), ToSeconds: num("to"), StepSeconds: num("step")}
	var points int64
	t0 := time.Now()
	t1 := t0
	if q.Expr != "" {
		c, err := query.Compile(q.Expr, query.KnownNames(tw.st.Columns()))
		if err != nil {
			ph.fail("twin query %q: %v", q.Expr, err)
			return
		}
		t1 = time.Now()
		res, err := query.QueryStore(tw.st, c, query.Options{FromSeconds: so.FromSeconds, ToSeconds: so.ToSeconds, StepSeconds: so.StepSeconds})
		if err != nil {
			ph.fail("twin query %q: %v", q.Expr, err)
			return
		}
		for _, s := range res.Series {
			points += int64(len(s.Points))
		}
		qs.compileUS = append(qs.compileUS, float64(t1.Sub(t0))/1e3)
		tr.add("query.compile", t0, t1, -1, 0)
	} else {
		pid, _ := strconv.Atoi(v.Get("pid"))
		raw := so
		raw.PID = pid
		res, err := tw.st.Query(raw)
		if err != nil {
			ph.fail("twin raw query: %v", err)
			return
		}
		for _, s := range res.Series {
			points += int64(len(s.Points))
		}
	}
	t2 := time.Now()
	qs.execMS[q.Tier] = append(qs.execMS[q.Tier], ms(t2.Sub(t1)))
	tr.add("query.exec."+q.Tier, t1, t2, -1, 0)
	ph.benchCPU(func() {
		var records, rows int64
		if _, err := tw.st.Scan(so, func(rec *store.Record, _ []string) error {
			records++
			rows += int64(len(rec.Rows))
			return nil
		}); err != nil {
			ph.fail("twin scan: %v", err)
		}
		qs.records = append(qs.records, float64(records))
		qs.rows += rows
		qs.points += points
	})
}

// countSegments counts segment files never seen before in the twin's
// store: each one means the previous active segment of its tier was
// sealed.
func (tw *twin) countSegments() int {
	ents, err := os.ReadDir(tw.dir)
	if err != nil {
		return 0
	}
	if tw.seen == nil {
		tw.seen = map[string]bool{}
	}
	n := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".seg") && !tw.seen[e.Name()] {
			tw.seen[e.Name()] = true
			n++
		}
	}
	return n
}
