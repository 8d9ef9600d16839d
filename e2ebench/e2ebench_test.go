package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check the
// printed result against.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestInputsFollowTheSeed(t *testing.T) {
	for _, name := range workloadNames() {
		spec := specs[name]
		a := GenInputs(spec, 7, 5*time.Second)
		b := GenInputs(spec, 7, 5*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		c := GenInputs(spec, 8, 5*time.Second)
		if reflect.DeepEqual(a.Jobs, c.Jobs) || reflect.DeepEqual(a.Queries, c.Queries) ||
			reflect.DeepEqual(a.Requests, c.Requests) || a.History.Seed == c.History.Seed {
			t.Errorf("%s: another seed left an input family unchanged", name)
		}
		if spec.ChurnMax > 0 && reflect.DeepEqual(a.Churn, c.Churn) {
			t.Errorf("%s: another seed left the churn schedule unchanged", name)
		}
	}
}

// TestTinyRuns runs every workload, including any BENCHMARK.json does
// not list, shrunk to a few dozen tasks, untraced and traced: every
// metric BENCHMARK.json names must be printed and finite, every check
// must pass, and each workload must exercise the mechanism it is
// chosen for.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline")
	}
	want := loadBenchmarkJSON(t)
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var stderr bytes.Buffer
				o := options{seed: 3, seconds: 2, trace: trace == "1", work: t.TempDir()}
				res, err := bench(specs[w].tiny(), o, &stderr)
				if err != nil {
					t.Fatalf("%v: %s", err, stderr.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d: %s", res.Correct, res.Failed, res.Attempted, stderr.String())
				}
				names := want.EndToEnd
				if trace == "1" {
					names = want.PerLayer
				}
				if len(res.Metrics) != len(names) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(names))
				}
				for _, n := range names {
					m, ok := res.Metrics[n.Name]
					if !ok || m.Unit != n.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s: %+v (present %v), want unit %s", n.Name, m, ok, n.Unit)
					}
				}
				if trace == "1" {
					checkMechanism(t, w, res.Metrics)
				}
			})
		}
	}
}

func checkMechanism(t *testing.T, workload string, m map[string]metric) {
	t.Helper()
	switch workload {
	case "live-4k":
		// Three events fit the E5640's counters: the mux passes through.
		if a, r := m["mux.inner_attach_per_refresh"].Value, m["mux.inner_reads_per_task_refresh"].Value; a != 0 || r != 1 {
			t.Errorf("live-4k mux: %v inner attaches per refresh, %v reads per task; want 0 and 1", a, r)
		}
	case "starved-churn":
		if c := m["mux.coverage_mean"].Value; c >= 1 {
			t.Errorf("starved-churn: coverage %v, want rotation (< 1)", c)
		}
	case "history-query":
		if r := m["query.records_scanned"].Value; r <= 0 {
			t.Errorf("history-query: %v records scanned per query", r)
		}
	}
}
