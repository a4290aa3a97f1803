// Command bench is the campaign benchmark: it drives the campaign
// engine through its public functions and hooks only, as closed loops
// that run campaigns back to back on a two-worker runner, and checks
// every campaign's output against an oracle.
//
// Run it from the repository root:
//
//	bash bench/run.sh -workload matrix -seed 7 -seconds 10 -trace 0
//
// Each run measures one workload in several rounds, each a fresh child
// process: the round sets the workload up (the cold first campaign every
// repro invocation pays), warms up, then times campaigns for its share
// of -seconds. End-to-end metrics are medians over rounds; campaign
// latency percentiles pool every timed campaign. -trace 1 replaces them
// with per-layer metrics from a traced pass, writes a Chrome trace and
// prints each layer's self time. The last line of standard output is
// one JSON object: correct, attempted, failed and the metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rounds is how many child processes one run is split across. The
// median over rounds damps the machine's second-to-second drift and
// gives set-up time several samples per run.
const rounds = 20

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the campaign engine sees.
var endToEnd = []metricDef{
	{"cells_per_s", "cells/s"},
	{"campaign_ms_p50", "ms"},
	{"campaign_ms_p95", "ms"},
	{"alloc_kb_per_cell", "KB"},
	{"peak_rss_mb", "MB"},
	{"cpu_ms_per_campaign", "ms"},
	{"setup_s", "s"},
}

// perLayer are the traced pass's metrics, grouped by layer.
var perLayer = []metricDef{
	{"campaign.cell_run_us_p50", "us"},
	{"campaign.queue_wait_us_p50", "us"},
	{"campaign.worker_utilization", "ratio"},
	{"campaign.engine_overhead_us_per_cell", "us"},
	{"campaign.failed_cells.error", "count/campaign"},
	{"campaign.failed_cells.panic", "count/campaign"},
	{"campaign.failed_cells.hang", "count/campaign"},
	{"campaign.fork_us", "us"},
	{"campaign.recycle_us", "us"},
	{"campaign.snapshot_build_ms", "ms"},
	{"exploits.scenario_us", "us"},
	{"exploits.steps_per_cell", "count/cell"},
	{"monitor.assess_us", "us"},
	{"monitor.evidence_per_cell", "count/cell"},
	{"hv.hypercalls_per_cell", "count/cell"},
	{"hv.hypercall_errors_per_cell", "count/cell"},
	{"hv.validation_rejects_per_cell", "count/cell"},
	{"hv.walk_faults_per_cell", "count/cell"},
	{"mm.frame_allocs_per_cell", "count/cell"},
	{"mm.pagetype_gets_per_cell", "count/cell"},
	{"inject.ops_per_cell", "count/cell"},
	{"telemetry.events_per_cell", "count/cell"},
	{"telemetry.dropped_per_cell", "count/cell"},
	{"telemetry.ring_fill_ratio", "ratio"},
	{"coverage.report_ms", "ms"},
	{"coverage.union_edges", "count"},
	{"span.forest_ms", "ms"},
	{"report.render_ms", "ms"},
	{"ledger.load_ms", "ms"},
	{"ledger.plan_us", "us"},
	{"ledger.equivalence_ms", "ms"},
	{"ledger.close_ms", "ms"},
	{"ledger.journal_kb", "KB"},
	{"obs.flight_dump_us", "us"},
	{"obs.flight_dumps_per_campaign", "count/campaign"},
	{"runtime.gc_cycles_per_campaign", "count/campaign"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.mutex_wait_us_per_campaign", "us"},
	{"runtime.sched_latency_us_p99", "us"},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // results, the trace and scratch stores go here
	root     string // repository root
	size     scale
}

// scale sizes a round. Runs use fullScale; the tests use a tiny one.
type scale struct {
	budget       time.Duration // measured time per round
	minCampaigns int           // timed campaigns per round, stretching the budget
	warmup       int           // untimed campaigns before measuring
	variants     int           // seeded input variants chaos and resume rotate through
	lifecycle    int           // sweeps over the matrix in the lifecycle measurement
	probes       int           // traced campaigns per probed workload
}

// fullScale gives each run at least 200 timed campaigns, so the p95
// has at least ten samples beyond it.
func fullScale(seconds int) scale {
	return scale{
		budget:       time.Duration(seconds) * time.Second / rounds,
		minCampaigns: (200 + rounds - 1) / rounds,
		warmup:       1,
		variants:     8,
		lifecycle:    20,
		probes:       5,
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to measure: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 7, "seed every generated input derives from")
	seconds := flag.Int("seconds", 10, "measured seconds per run, split across the rounds")
	trace := flag.Int("trace", 0, "1: traced pass, reporting per-layer metrics instead of end-to-end ones")
	out := flag.String("out", "", "directory for results, the trace and scratch stores (default: a new directory under $TMPDIR)")
	round := flag.Int("round", -1, "run one round in this process and print its result (used by the run itself)")
	flag.Parse()

	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(os.Stderr, "bench: -workload: want one of %s, got %q\n", strings.Join(workloadNames, ", "), *workload)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(os.Stderr, "bench: -seconds: want at least 1, got %d\n", *seconds)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace: want 0 or 1, got %d\n", *trace)
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, root: ".", size: fullScale(*seconds)}

	if *round >= 0 {
		res, err := runRound(o, *round)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s round %d: %v\n", o.workload, *round, err)
			return 1
		}
		data, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Println(string(data))
		return 0
	}

	if o.out == "" {
		dir, err := os.MkdirTemp("", "repro-bench-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		o.out = dir
	} else if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return runParent(o)
}

// runParent runs the rounds as child processes, one after another, and
// reports their summary.
func runParent(o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	var results []*roundResult
	var failures []string
	for r := 0; r < rounds; r++ {
		res, err := spawnRound(exe, o, r)
		if err != nil {
			failures = append(failures, fmt.Sprintf("round %d: %v", r, err))
			continue
		}
		results = append(results, res)
	}
	rep := summarize(o, results)
	rep.Errors = append(failures, rep.Errors...)
	rep.Correct = rep.Correct && len(failures) == 0

	name := fmt.Sprintf("results-%s-seed%d-trace%d.json", o.workload, o.seed, boolInt(o.trace))
	if data, err := json.MarshalIndent(struct {
		*runReport
		Rounds []*roundResult `json:"rounds"`
	}{rep, results}, "", "  "); err == nil {
		if err := os.WriteFile(filepath.Join(o.out, name), append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		}
	}
	rep.print(os.Stderr, o)
	fmt.Fprintf(os.Stderr, "results: %s\n", filepath.Join(o.out, name))

	line, err := json.Marshal(rep.line())
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// spawnRound runs one round in a child process. Set-up time runs from
// the spawn to the child's ready mark, so process start and package
// initialisation count, as they do for every repro invocation.
func spawnRound(exe string, o options, r int) (*roundResult, error) {
	cmd := exec.Command(exe,
		"-round", strconv.Itoa(r),
		"-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
		"-trace", strconv.Itoa(boolInt(o.trace)),
		"-out", o.out)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	spawned := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res roundResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("round result: %w", err)
	}
	res.SetupS = float64(res.ReadyUnixNS-spawned.UnixNano()) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &res, nil
}

// runReport is a run's summary.
type runReport struct {
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedRatio float64            `json:"failed_ratio"`
	Metrics     map[string]float64 `json:"metrics"`
	Spread      map[string]float64 `json:"round_spread,omitempty"`
	Campaigns   int                `json:"campaigns"`
	// TraceOverhead is untraced over traced cells/s, minus one.
	TraceOverhead float64              `json:"trace_overhead,omitempty"`
	SelfTime      map[string]*layerAgg `json:"self_time,omitempty"`
	Errors        []string             `json:"errors,omitempty"`
	defs          []metricDef
}

// summarize folds the rounds into the run's metrics: medians over rounds,
// with latency percentiles over every pooled campaign.
func summarize(o options, results []*roundResult) *runReport {
	rep := &runReport{Correct: true, Metrics: make(map[string]float64), Spread: make(map[string]float64), defs: endToEnd}
	perRound := make(map[string][]float64)
	var pooled, untraced, traced []float64
	for _, r := range results {
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
		rep.Errors = append(rep.Errors, r.Errors...)
		pooled = append(pooled, r.CampaignMS...)
		if o.trace {
			for name, v := range r.Layers {
				perRound[name] = append(perRound[name], v)
			}
			untraced = append(untraced, r.UntracedCellsPerS)
			traced = append(traced, r.TracedCellsPerS)
			rep.mergeSelfTime(r.SelfTime)
			continue
		}
		n := float64(len(r.CampaignMS))
		perRound["cells_per_s"] = append(perRound["cells_per_s"], float64(r.Cells)/(float64(r.WallNS)/1e9))
		perRound["alloc_kb_per_cell"] = append(perRound["alloc_kb_per_cell"], float64(r.AllocBytes)/1024/float64(r.Cells))
		perRound["peak_rss_mb"] = append(perRound["peak_rss_mb"], r.PeakRSSMB)
		perRound["cpu_ms_per_campaign"] = append(perRound["cpu_ms_per_campaign"], float64(r.CPUNS)/1e6/n)
		perRound["setup_s"] = append(perRound["setup_s"], r.SetupS)
	}
	rep.Campaigns = len(pooled)
	if o.trace {
		rep.defs = perLayer
		rep.TraceOverhead = median(untraced)/median(traced) - 1
	}
	for _, d := range rep.defs {
		switch d.name {
		case "campaign_ms_p50":
			rep.Metrics[d.name] = median(pooled)
		case "campaign_ms_p95":
			rep.Metrics[d.name] = quantile(pooled, 0.95)
		default:
			rep.Metrics[d.name] = median(perRound[d.name])
			if len(perRound[d.name]) >= 2 && rep.Metrics[d.name] != 0 {
				rep.Spread[d.name] = spread(perRound[d.name])
			}
		}
	}
	for name, v := range rep.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.Correct = false
			rep.Errors = append(rep.Errors, "metric "+name+" was not measured")
			rep.Metrics[name] = 0
		}
	}
	if rep.Attempted > 0 {
		rep.FailedRatio = float64(rep.Failed) / float64(rep.Attempted)
	}
	if rep.Failed > 0 || rep.Attempted == 0 || len(rep.Errors) > 0 {
		rep.Correct = false
	}
	return rep
}

func (rep *runReport) mergeSelfTime(st map[string]*layerAgg) {
	if rep.SelfTime == nil {
		rep.SelfTime = make(map[string]*layerAgg)
	}
	for name, a := range st {
		acc := rep.SelfTime[name]
		if acc == nil {
			acc = &layerAgg{}
			rep.SelfTime[name] = acc
		}
		acc.Calls += a.Calls
		acc.TotalNS += a.TotalNS
		acc.SelfNS += a.SelfNS
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line is the run's machine-readable result.
func (rep *runReport) line() resultLine {
	l := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: make(map[string]metricValue)}
	for _, d := range rep.defs {
		l.Metrics[d.name] = metricValue{Value: rep.Metrics[d.name], Unit: d.unit}
	}
	return l
}

// print writes the human-readable summary.
func (rep *runReport) print(w *os.File, o options) {
	if o.trace {
		fmt.Fprintf(w, "\n%s seed %d: per-layer metrics from the traced pass, %d rounds\n", o.workload, o.seed, rounds)
	} else {
		fmt.Fprintf(w, "\n%s seed %d: end-to-end metrics, %d rounds, %d timed campaigns\n", o.workload, o.seed, rounds, rep.Campaigns)
	}
	for _, d := range rep.defs {
		line := fmt.Sprintf("  %-38s %14.4f %-14s", d.name, rep.Metrics[d.name], d.unit)
		if s, ok := rep.Spread[d.name]; ok {
			line += fmt.Sprintf(" round IQR %.1f%%", 100*s)
		}
		fmt.Fprintln(w, line)
	}
	if !o.trace {
		if b := beyond(rep.Campaigns, 0.95); b < minTail {
			fmt.Fprintf(w, "  warning: only %d campaigns beyond p95 (want %d); raise -seconds\n", b, minTail)
		}
	} else {
		fmt.Fprintf(w, "  tracing overhead: %.1f%% of untraced cells/s\n", 100*rep.TraceOverhead)
		rep.printSelfTime(w)
	}
	fmt.Fprintf(w, "  attempted %d cells, failed %d (failed_ratio %.4f), correct %t\n", rep.Attempted, rep.Failed, rep.FailedRatio, rep.Correct)
	for i, e := range rep.Errors {
		if i == 10 {
			fmt.Fprintf(w, "  ... %d more errors\n", len(rep.Errors)-i)
			break
		}
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

// printSelfTime lists the traced campaigns' layers by self time.
func (rep *runReport) printSelfTime(w *os.File) {
	names := make([]string, 0, len(rep.SelfTime))
	var total int64
	for name, a := range rep.SelfTime {
		names = append(names, name)
		total += a.SelfNS
	}
	sort.Slice(names, func(i, j int) bool { return rep.SelfTime[names[i]].SelfNS > rep.SelfTime[names[j]].SelfNS })
	fmt.Fprintf(w, "  %-38s %10s %12s %12s %7s\n", "layer (self time, traced campaigns)", "calls", "total ms", "self ms", "share")
	for _, name := range names {
		a := rep.SelfTime[name]
		fmt.Fprintf(w, "  %-38s %10d %12.2f %12.2f %6.1f%%\n", name, a.Calls,
			float64(a.TotalNS)/1e6, float64(a.SelfNS)/1e6, 100*float64(a.SelfNS)/float64(total))
	}
}
