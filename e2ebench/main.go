// Command e2ebench is tiptop's end-to-end benchmark. It assembles the
// tiptopd pipeline from the same public calls cmd/tiptopd makes, drives
// it with a seeded open-loop load from this one process, checks every
// output, and prints one JSON result line. DESIGN.md describes the
// workloads, the metrics and how CPU is accounted.
//
//	e2ebench --workload live-4k --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload: %v", workloadNames()))
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&o.seconds, "seconds", 40, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run beside an untraced one")
	fs.StringVar(&o.work, "work", ".bench_build/e2ebench", "directory for stores, spans and reports")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: want --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	o.trace = trace == 1
	spec, err := lookupSpec(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	res, err := bench(spec, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func bench(spec Spec, o options, stderr io.Writer) (*result, error) {
	name := fmt.Sprintf("%s-seed%d-trace%v", spec.Name, o.seed, o.trace)
	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	length := time.Duration(o.seconds) * time.Second

	report := map[string]any{"workload": spec.Name, "seed": o.seed, "seconds": o.seconds}
	var res *result
	var err error
	if !o.trace {
		res, err = untracedRun(spec, o.seed, length, dir, report)
	} else {
		res, err = tracedRun(spec, o.seed, length, dir, filepath.Join(o.work, name+"-spans.json"), report)
	}
	if err != nil {
		return nil, err
	}
	report["result"] = res
	if data, err := json.MarshalIndent(report, "", "  "); err == nil {
		_ = os.WriteFile(filepath.Join(o.work, name+"-report.json"), data, 0o644)
	}
	fmt.Fprintf(stderr, "e2ebench %s: correct=%v attempted=%d failed=%d valid=%v\n",
		name, res.Correct, res.Attempted, res.Failed, report["valid"])
	if f, ok := report["failures"].([]string); ok {
		for _, msg := range f {
			fmt.Fprintln(stderr, "  failure:", msg)
		}
	}
	return res, nil
}

// setupRuns is how many times an untraced run builds the pipeline: the
// median is setup_s, and the last build is measured.
const setupRuns = 5

// warmup is how long an untraced run drives the full load before the
// measured window: the heap, the collector's pacing, the connections
// and the store's files settle, and the request client sees every
// query of the pool once.
const warmup = 5 * time.Second

func untracedRun(spec Spec, seed int64, length time.Duration, dir string, report map[string]any) (*result, error) {
	in := GenInputs(spec, seed, warmup+length)
	var setups []float64
	var p *pipeline
	var storeDir string
	for i := 0; i < setupRuns; i++ {
		storeDir = filepath.Join(dir, fmt.Sprintf("store%d", i))
		runtime.GC() // each set-up starts on a clean heap, as a fresh daemon does
		pp, d, err := setupPipeline(spec, in, storeDir, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRuns-1 {
			if err := pp.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(storeDir); err != nil {
				return nil, err
			}
			continue
		}
		p = pp
	}
	ph := newPhase(p, warmup, length)
	runErr := ph.run()
	if err := errors.Join(runErr, p.close()); err != nil {
		return nil, err
	}
	bytes, rows, err := storeFootprint(storeDir)
	if err != nil {
		return nil, err
	}

	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", quantile(setups, 0.5))
	put("sample_to_subscriber_ms.p50", "ms", quantile(ph.deliverMS, 0.5))
	put("sample_to_subscriber_ms.p90", "ms", quantile(ph.deliverMS, 0.9))
	put("cpu_us_per_task_refresh", "us", ph.cpuPerTaskRefreshUS())
	put("scrape_ms.p50", "ms", quantile(ph.scrapeMS, 0.5))
	put("scrape_ms.p90", "ms", quantile(ph.scrapeMS, 0.9))
	for _, tier := range []string{TierRaw, Tier10s, Tier1m} {
		put("query_"+tier+"_ms.p50", "ms", quantile(ph.queryMS[tier], 0.5))
		put("query_"+tier+"_ms.p90", "ms", quantile(ph.queryMS[tier], 0.9))
	}
	put("store_bytes_per_row", "B", ratio(float64(bytes), float64(rows)))
	put("ops_ok_ratio", "ratio", 1-ratio(float64(ph.failed.Load()), float64(ph.attempted.Load())))
	put("rss_peak_mb", "MiB", peakRSSMB())

	report["setup_s"] = setups
	report["latencies_ms"] = map[string][]float64{"deliver": ph.deliverMS, "scrape": ph.scrapeMS,
		"query_raw": ph.queryMS[TierRaw], "query_10s": ph.queryMS[Tier10s], "query_1m": ph.queryMS[Tier1m]}
	late, valid, failures := ph.health()
	report["generator_late"], report["valid"], report["failures"] = late, valid, failures
	return &result{
		Correct:   valid && ph.failed.Load() == 0,
		Attempted: ph.attempted.Load(),
		Failed:    ph.failed.Load(),
		Metrics:   m,
	}, nil
}

// cpuPerTaskRefreshUS is the paper's overhead figure: process CPU over
// the phase, minus the simulated machine's advance and the benchmark's
// own work (both measured as thread CPU on locked threads), per
// refresh per monitored task.
func (ph *phase) cpuPerTaskRefreshUS() float64 {
	own := ph.procCPU - ph.simCPU - ph.checkCPUTotal
	return ratio(float64(own)/1e3, ph.tasks)
}

// health reports how late the generator issued refreshes, scrapes and
// queries, whether it fell behind (valid is false then), and the
// phase's failures. The generator has fallen behind when anything was
// issued more than one refresh period late: by then the next refresh
// was due, a backlog had formed, and the latencies measure the backlog.
func (ph *phase) health() (late map[string]map[string]float64, valid bool, failures []string) {
	late = map[string]map[string]float64{}
	valid = true
	limit := ms(ph.spec.Period)
	for name, xs := range map[string][]float64{"refresh": ph.lateRefresh, "scrape": ph.lateScrape, "query": ph.lateQuery} {
		mx, behind := 0.0, 0
		for _, x := range xs {
			mx = math.Max(mx, x)
			if x > limit {
				behind++
			}
		}
		late[name] = map[string]float64{"p50_ms": quantile(xs, 0.5), "p99_ms": quantile(xs, 0.99), "max_ms": mx,
			"over_period": float64(behind)}
		if behind > 0 {
			valid = false
		}
	}
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return late, valid, append([]string(nil), ph.failures...)
}

// tracedRun measures half the length untraced and half traced, on two
// fresh pipelines, and reports the per-layer split of the traced half
// and the tracing overhead against the untraced half.
func tracedRun(spec Spec, seed int64, length time.Duration, dir, spansPath string, report map[string]any) (*result, error) {
	half := length / 2
	in := GenInputs(spec, seed, half)
	p1, _, err := setupPipeline(spec, in, filepath.Join(dir, "untraced"), nil)
	if err != nil {
		return nil, err
	}
	ph1 := newPhase(p1, 0, half)
	if err := errors.Join(ph1.run(), p1.close()); err != nil {
		return nil, err
	}
	tr := &tracer{}
	p2, _, err := setupPipeline(spec, in, filepath.Join(dir, "traced"), tr)
	if err != nil {
		return nil, err
	}
	ph2 := newPhase(p2, 0, half)
	runErr := ph2.run()
	dropped := p2.srv.Hub().Dropped()
	if err := errors.Join(runErr, p2.close()); err != nil {
		return nil, err
	}
	ph2.finishTrace()
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}

	self, dur := tr.selfTimes(), tr.durations()
	p50 := func(xs []float64) float64 { return quantile(xs, 0.5) }
	var copyMS []float64
	for i := range min(len(dur["facade.sample"]), len(dur["twin.update"])) {
		copyMS = append(copyMS, dur["facade.sample"][i]-dur["twin.update"][i])
	}
	ts, qs := ph2.twinStats, ph2.queryStats
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	put("core.update_ms.p50", "ms", p50(self["twin.update"]))
	put("core.allocs_per_refresh", "count", p50(ph2.quietAlloc))
	put("facade.copy_ms.p50", "ms", p50(copyMS))
	put("mux.inner_attach_per_refresh", "count", ratio(float64(ts.innerAttach), float64(ph2.refreshes)))
	put("mux.inner_reads_per_task_refresh", "count", ratio(float64(ts.innerReads), ph2.tasks))
	put("mux.read_us_per_task.p50", "us", p50(ts.outerReadUS))
	put("mux.coverage_mean", "ratio", mean(ph2.coverage))
	put("history.observe_ms.p50", "ms", p50(self["twin.history.observe"]))
	put("store.append_ms.p50", "ms", p50(dur["twin.store.append"]))
	put("store.append_ms.p95", "ms", quantile(dur["twin.store.append"], 0.95))
	put("store.bytes_per_refresh", "B", p50(ts.storeBytes))
	put("store.segments_sealed", "count", float64(ts.sealed))
	put("query.compile_us.p50", "us", p50(qs.compileUS))
	for _, tier := range []string{TierRaw, Tier10s, Tier1m} {
		put("query.exec_ms."+tier, "ms", p50(qs.execMS[tier]))
	}
	put("query.records_scanned", "count", mean(qs.records))
	put("query.rows_examined_per_point", "ratio", ratio(float64(qs.rows), float64(qs.points)))
	put("remote.wire_translate_ms.p50", "ms", p50(dur["remote.wire_translate"]))
	put("remote.publish_ms.p50", "ms", p50(dur["remote.publish"]))
	put("remote.frame_bytes", "B", mean(ph2.frameBytes))
	put("remote.deliver_ms.p50", "ms", p50(dur["remote.deliver"]))
	put("remote.hub_dropped", "count", float64(dropped))
	put("export.openmetrics_ms.p50", "ms", p50(dur["export.openmetrics"]))
	put("export.openmetrics_bytes", "B", ratio(float64(p2.encodeBytes.Load()), float64(p2.encodes.Load())))
	put("export.cache_hit_ratio", "ratio", math.Max(0, 1-ratio(float64(p2.encodes.Load()), float64(len(ph2.scrapeMS)))))
	put("sim.advance_ms.p50", "ms", p50(ph1.advanceMS))
	put("sim.advance_cpu_share", "ratio", ratio(float64(ph1.simCPU), float64(ph1.procCPU)))
	put("trace.unattributed_share", "ratio", ratio(sum(self["refresh"]), sum(dur["refresh"])))
	put("trace.overhead_cpu_ratio", "ratio", ratio(ph2.cpuPerTaskRefreshUS(), ph1.cpuPerTaskRefreshUS())-1)
	put("trace.overhead_latency_ratio", "ratio", ratio(p50(ph2.deliverMS), p50(ph1.deliverMS))-1)
	put("gen.refresh_late_ms.p99", "ms", quantile(ph1.lateRefresh, 0.99))
	put("gen.scrape_late_ms.p99", "ms", quantile(ph1.lateScrape, 0.99))
	put("gen.query_late_ms.p99", "ms", quantile(ph1.lateQuery, 0.99))

	late1, valid1, failures1 := ph1.health()
	late2, valid2, failures2 := ph2.health()
	valid := valid1 && valid2
	report["generator_late"] = map[string]any{"untraced": late1, "traced": late2}
	report["valid"], report["failures"] = valid, append(failures1, failures2...)
	report["twin_lockstep_mismatches"] = ph2.lockstep
	failed := ph1.failed.Load() + ph2.failed.Load()
	return &result{
		Correct:   valid && failed == 0 && ph2.lockstep == 0,
		Attempted: ph1.attempted.Load() + ph2.attempted.Load(),
		Failed:    failed,
		Metrics:   m,
	}, nil
}
