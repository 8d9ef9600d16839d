package main

import (
	"fmt"
	"sort"
	"time"

	"tiptop"
)

// Spec sizes one workload. DESIGN.md gives the reason for each.
type Spec struct {
	Name    string
	Machine tiptop.MachineName
	Screen  string
	Tasks   int
	// Period is both the wall-clock refresh period and the simulated
	// interval each refresh advances, so the simulated machine runs in
	// real time.
	Period   time.Duration
	ChurnMax int
	Wire     string // stream subscriber encoding: "json" or "binary"

	// ScrapeAt and QueryAt place the request client's scrapes and
	// queries within every refresh period, as fractions of it: after
	// the refresh's own work, and apart from each other, so the single
	// request connection rarely makes one request wait for another.
	ScrapeAt []float64
	QueryAt  []float64

	HistoryTasks     int
	HistoryRefreshes int
	HistoryInterval  time.Duration
	Fsync            string
}

var specs = map[string]Spec{
	"live-4k": {
		Name: "live-4k", Machine: tiptop.MachineE5640, Screen: "default",
		Tasks: 4000, Period: 500 * time.Millisecond, Wire: "json",
		ScrapeAt: []float64{0.5, 0.64, 0.76, 0.88}, QueryAt: []float64{0.12, 0.2, 0.28, 0.36},
		HistoryTasks: 64, HistoryRefreshes: 180, HistoryInterval: 5 * time.Second,
		Fsync: "off",
	},
	"starved-churn": {
		Name: "starved-churn", Machine: tiptop.MachineCortexA7, Screen: "wide",
		Tasks: 300, Period: 100 * time.Millisecond, ChurnMax: 4, Wire: "binary",
		ScrapeAt: []float64{0.3}, QueryAt: []float64{0.55},
		HistoryTasks: 64, HistoryRefreshes: 180, HistoryInterval: 5 * time.Second,
		Fsync: "200ms,20-records",
	},
	"history-query": {
		Name: "history-query", Machine: tiptop.MachineE5640, Screen: "default",
		Tasks: 200, Period: 100 * time.Millisecond, Wire: "json",
		ScrapeAt: []float64{0.15}, QueryAt: []float64{0.3},
		HistoryTasks: 200, HistoryRefreshes: 720, HistoryInterval: 5 * time.Second,
		Fsync: "off",
	},
}

func workloadNames() []string {
	var names []string
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func lookupSpec(name string) (Spec, error) {
	s, ok := specs[name]
	if !ok {
		return Spec{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	return s, nil
}

// tiny shrinks a workload for tests: same mechanisms, a fraction of
// the tasks and history.
func (s Spec) tiny() Spec {
	s.Tasks = min(s.Tasks, 40)
	s.HistoryTasks = min(s.HistoryTasks, 16)
	s.HistoryRefreshes = min(s.HistoryRefreshes, 60)
	return s
}
