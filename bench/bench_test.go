package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// tiny runs two campaigns per loop and each layer pass once.
var tiny = scale{minCampaigns: 2, variants: 1, lifecycle: 1, probes: 1}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesHarness pins BENCHMARK.json to the harness:
// the same workloads and metrics, with the units the harness emits.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b := loadBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) || len(n) > 64 {
			t.Errorf("name %q is not made of at most 64 letters, digits, _, . and -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	var workloads []string
	for _, w := range b.Workloads {
		check(w.Name)
		workloads = append(workloads, w.Name)
	}
	if !slices.Equal(workloads, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", workloads, workloadNames)
	}
	compare := func(kind string, defs []metricDef, names, units []string) {
		if len(names) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness emits %d", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			check(names[i])
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the harness emits %s (%s)", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	maxBound := 0.0
	for _, m := range b.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	compare("end_to_end", endToEnd, names, units)
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	names, units = nil, nil
	for _, m := range b.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	compare("per_layer", perLayer, names, units)
}

// TestWorkloadsPassTheirOracles runs every workload for two campaigns in
// process and checks that none fails and that every end-to-end metric
// comes out, with its unit.
func TestWorkloadsPassTheirOracles(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			o := options{workload: w, seed: 7, out: t.TempDir(), root: "..", size: tiny}
			res, err := runRound(o, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted != 2*len(allCells()) || len(res.Errors) != 0 {
				t.Fatalf("attempted %d cells, failed %d: %v", res.Attempted, res.Failed, res.Errors)
			}
			res.SetupS, res.PeakRSSMB = 0.5, 100
			checkLine(t, summarize(o, []*roundResult{res}), endToEnd)
		})
	}
}

// TestTracedPassEmitsEveryLayer runs the traced pass on the matrix
// workload, which probes the layers only the other workloads call.
func TestTracedPassEmitsEveryLayer(t *testing.T) {
	o := options{workload: "matrix", seed: 7, trace: true, out: t.TempDir(), root: "..", size: tiny}
	res, err := runRound(o, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || len(res.Errors) != 0 {
		t.Fatalf("failed %d cells: %v", res.Failed, res.Errors)
	}
	checkLine(t, summarize(o, []*roundResult{res}), perLayer)
	if got := res.Layers["coverage.union_edges"]; got != 34 {
		t.Errorf("coverage.union_edges = %v, want 34", got)
	}
	data, err := os.ReadFile(filepath.Join(o.out, "trace-matrix-seed7.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	tracks := make(map[int]bool)
	for _, e := range trace.TraceEvents {
		if e.Ph == "X" {
			tracks[e.TID] = true
		}
	}
	if !tracks[0] || !tracks[1] {
		t.Errorf("trace has spans on tracks %v, want the campaign loop's (0) and a worker's (1)", tracks)
	}
}

// checkLine checks the result line carries exactly the metrics, each a
// finite number with its unit.
func checkLine(t *testing.T, rep *runReport, defs []metricDef) {
	t.Helper()
	if !rep.Correct {
		t.Errorf("run not correct: %v", rep.Errors)
	}
	l := rep.line()
	if len(l.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, want %d", len(l.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := l.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s in %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.name, m.Value)
		}
	}
}

func TestStats(t *testing.T) {
	xs := []float64{7, 1, 3, 5, 9, 2, 8, 4, 6, 10}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := quantile(xs, 0.95); math.Abs(got-9.55) > 1e-9 {
		t.Errorf("p95 = %v, want 9.55", got)
	}
	if got := quantile([]float64{4}, 0.95); got != 4 {
		t.Errorf("p95 of one sample = %v, want 4", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two-sample quartiles = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is a number")
	}
	for _, c := range []struct {
		n    int
		want int
	}{{200, 10}, {199, 9}, {20, 1}, {1000, 50}} {
		if got := beyond(c.n, 0.95); got != c.want {
			t.Errorf("beyond(%d, 0.95) = %d, want %d", c.n, got, c.want)
		}
	}
}
