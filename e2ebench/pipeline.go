package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"tiptop"
	"tiptop/internal/remote"
	"tiptop/internal/store"
)

// pipeline is one tiptopd, assembled from the public calls cmd/tiptopd
// makes: NewSimMonitor → Subscribe(Recorder) → Tee(Store) →
// remote.NewServer(rec.WriteOpenMetrics), with QueryHandler mounted at
// /api/v1/query, served over loopback HTTP.
type pipeline struct {
	spec Spec
	in   *Inputs
	dir  string

	sc   *tiptop.Scenario
	mon  *tiptop.Monitor
	rec  *tiptop.Recorder
	st   *tiptop.Store
	srv  *remote.Server
	hs   *http.Server
	done chan error
	url  string

	pids  []int // by job index; 0 when not running
	cols  []string
	first *tiptop.Sample // the attach refresh, never published
	refs  [][]byte       // reference answer per query
	qpid  []int          // pid a raw query reads, fixed at setup

	tr *tracer // nil when not traced
	tw *twin   // traced runs only

	encodes     atomic.Int64
	encodeBytes atomic.Int64
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// setupPipeline builds a pipeline and reports how long the parts a
// daemon pays at boot took: scenario build, prior-boot history through
// the append path, store recovery and compaction (as tiptopd -compact
// does at startup), server start and the first (attaching) refresh.
func setupPipeline(spec Spec, in *Inputs, dir string, tr *tracer) (*pipeline, time.Duration, error) {
	p := &pipeline{spec: spec, in: in, dir: dir, tr: tr, done: make(chan error, 1)}
	t0 := time.Now()
	if err := p.boot(); err != nil {
		p.close()
		return nil, 0, err
	}
	setup := time.Since(t0)
	if err := p.computeRefs(); err != nil {
		p.close()
		return nil, 0, err
	}
	return p, setup, nil
}

func (p *pipeline) boot() error {
	spec, in := p.spec, p.in
	sc, err := tiptop.NewScenario(spec.Machine)
	if err != nil {
		return err
	}
	p.sc = sc
	p.pids = make([]int, len(in.Jobs))
	for i := 0; i < in.Initial; i++ {
		if err := p.start(i); err != nil {
			return err
		}
	}
	p.mon, err = tiptop.NewSimMonitor(sc, tiptop.Config{Interval: spec.Period, Screen: spec.Screen})
	if err != nil {
		return err
	}
	p.cols = p.mon.Columns()
	fsync, err := tiptop.ParseFsync(spec.Fsync)
	if err != nil {
		return err
	}
	opt := tiptop.StoreOptions{Budget: storeBudget, Fsync: fsync}
	if err := writeHistory(p.dir, opt, p.cols, in, p.pids); err != nil {
		return err
	}
	if p.st, err = tiptop.OpenStore(p.dir, opt); err != nil {
		return err
	}
	if _, err := p.st.Compact(tiptop.CompactOptions{}); err != nil {
		return err
	}
	if p.tr != nil {
		// The twin's store starts as a copy of this one, so both scan
		// the same history.
		if err := copyDir(p.dir, p.dir+"-twin"); err != nil {
			return err
		}
	}

	p.rec = tiptop.NewRecorder(tiptop.RecorderOptions{})
	p.mon.Subscribe(p.rec)
	p.rec.Tee(p.st)
	p.srv = remote.NewServer(p.encode)
	mux := http.NewServeMux()
	p.srv.Register(mux)
	mux.Handle("GET /api/v1/query", tiptop.QueryHandler(p.st, p.rec))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	p.url = "http://" + ln.Addr().String()
	p.hs = &http.Server{Handler: mux}
	go func() { p.done <- p.hs.Serve(ln) }()

	if p.first, err = p.mon.SampleNow(); err != nil {
		return err
	}
	if p.tr != nil {
		if p.tw, err = newTwin(spec, in, p.dir+"-twin", opt, p.cols); err != nil {
			return err
		}
	}
	return nil
}

// storeBudget bounds every workload's store. It is far above what a run
// writes, so retention never retires the history queries read.
const storeBudget = 1 << 30

// encode is the /metrics encoder handed to remote.NewServer: the
// recorder's OpenMetrics writer, counted (and traced) from outside.
func (p *pipeline) encode(w io.Writer) error {
	start := time.Now()
	cw := &countingWriter{w: w}
	err := p.rec.WriteOpenMetrics(cw)
	p.encodes.Add(1)
	p.encodeBytes.Add(cw.n)
	p.tr.add("export.openmetrics", start, time.Now(), -1, 0)
	return err
}

func (p *pipeline) start(job int) error {
	j := p.in.Jobs[job]
	pid, err := p.sc.StartSyntheticJob(j.User, syntheticJob(j))
	if err != nil {
		return fmt.Errorf("start %s: %w", j.Name, err)
	}
	p.pids[job] = pid
	return nil
}

func syntheticJob(j Job) tiptop.SyntheticJob {
	return tiptop.SyntheticJob{Name: j.Name, IPC: j.IPC, MemRefsPKI: j.MemRefsPKI, HotMB: j.HotMB, WarmMB: j.WarmMB}
}

// churn applies refresh k's task turnover to the scenario.
func (p *pipeline) churn(k int) error {
	if k >= len(p.in.Churn) {
		return nil
	}
	c := p.in.Churn[k]
	for _, job := range c.Kill {
		if err := p.sc.Kill(p.pids[job]); err != nil {
			return err
		}
		p.pids[job] = 0
	}
	for _, job := range c.Start {
		if err := p.start(job); err != nil {
			return err
		}
	}
	return nil
}

// writeHistory records the prior boot through the store's append path
// (Store.RecordSample) and closes the store, leaving a store the
// timed boot recovers. Counter values are seeded per task and refresh.
func writeHistory(dir string, opt tiptop.StoreOptions, cols []string, in *Inputs, pids []int) error {
	h := in.History
	st, err := tiptop.OpenStore(dir, opt)
	if err != nil {
		return err
	}
	st.SetColumns(cols)
	rng := rand.New(rand.NewSource(h.Seed))
	share := make([]float64, len(h.Jobs))
	for i := range share {
		share[i] = 0.3 + 0.7*rng.Float64()
	}
	s := &tiptop.Sample{Rows: make([]tiptop.Row, len(h.Jobs))}
	for i, job := range h.Jobs {
		j := in.Jobs[job]
		s.Rows[i] = tiptop.Row{PID: pids[job], User: j.User, Command: j.Name, State: "R", Monitored: true,
			Coverage: 1, Columns: make([]float64, len(cols)), Events: map[string]uint64{}}
	}
	for r := 1; r <= h.Refreshes; r++ {
		s.Time = time.Duration(r) * h.Interval
		for i, job := range h.Jobs {
			j := in.Jobs[job]
			row := &s.Rows[i]
			cpu := share[i] * (0.9 + 0.2*rng.Float64())
			cycles := uint64(cpu * 2.66e9 * h.Interval.Seconds())
			instr := uint64(float64(cycles) * j.IPC * (0.9 + 0.2*rng.Float64()))
			misses := uint64(float64(instr) * j.MemRefsPKI / 1000 * 0.05 * rng.Float64())
			row.CPUPct = 100 * cpu
			row.Events["CYCLES"] = cycles
			row.Events["INSTRUCTIONS"] = instr
			row.Events["CACHE_MISSES"] = misses
			row.IPC = float64(instr) / float64(cycles)
			for c := range row.Columns {
				row.Columns[c] = float64(instr>>uint(c%8)) / 1e6
			}
		}
		if err := st.RecordSample(s); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

// computeRefs answers every query of the pool directly on
// the store, under the determinism contract (one worker, full decode),
// before the timed phase: every range lies in the sealed prior boot,
// so the served answers must match byte for byte.
func (p *pipeline) computeRefs() error {
	p.refs = make([][]byte, len(p.in.Queries))
	p.qpid = make([]int, len(p.in.Queries))
	for i, q := range p.in.Queries {
		var res any
		var err error
		if q.Tier == TierRaw {
			p.qpid[i] = p.pids[q.Job]
			res, err = p.st.Query(tiptop.StoreQuery{PID: p.qpid[i], FromSeconds: q.From, ToSeconds: q.To})
		} else {
			res, err = p.st.Querier().QueryExpr(q.Expr, tiptop.QueryOptions{
				FromSeconds: q.From, ToSeconds: q.To, StepSeconds: q.Step, Workers: 1, FullDecode: true})
		}
		if err != nil {
			return fmt.Errorf("reference for query %d: %w", i, err)
		}
		if p.refs[i], err = json.Marshal(res); err != nil {
			return err
		}
	}
	return nil
}

// close stops the server, the monitor and the store. It is safe on a
// partly built pipeline.
func (p *pipeline) close() error {
	var errs []error
	if p.srv != nil {
		p.srv.Close() // ends open streams so Shutdown can finish
	}
	if p.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, p.hs.Shutdown(ctx))
		cancel()
		if err := <-p.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if p.mon != nil {
		errs = append(errs, p.mon.Close())
	}
	if p.st != nil {
		errs = append(errs, p.st.Close())
	}
	if p.tw != nil {
		errs = append(errs, p.tw.close())
	}
	return errors.Join(errs...)
}

// storeFootprint reopens the closed store and returns its size on disk
// and the task rows it holds across all tiers.
func storeFootprint(dir string) (bytes int64, rows int64, err error) {
	st, err := store.Open(dir, store.Options{Budget: storeBudget})
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	for _, res := range store.Resolutions {
		q := store.QueryOptions{PID: -1, StepSeconds: res.Seconds()}
		if _, err := st.Scan(q, func(rec *store.Record, _ []string) error {
			rows += int64(len(rec.Rows))
			return nil
		}); err != nil {
			return 0, 0, err
		}
	}
	return st.DiskUsage(), rows, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
