package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// tracer keeps the traced pass's spans in memory: a root span per
// campaign, a span per public layer call the harness makes (track 0,
// the campaign loop), and one span per cell on its runner worker's
// track, fed by the engine's SchedObserver hook. At each campaign's end
// it folds the spans into per-layer totals and self times; the spans of
// the first keepCampaigns campaigns are also kept for the Chrome trace.
//
// A nil *tracer is the untraced pass: every method is a no-op, so the
// workloads call it unconditionally.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	cur    []traceSpan    // the open campaign's spans
	stack  []int          // open loop-track spans, innermost last
	runner int            // the open runner call, parent of cell spans (-1: none)
	cells  map[string]int // open cell spans by cell ID

	campaigns int
	layers    map[string]*layerAgg
	values    map[string][]float64 // layer-call span durations (ns) and observed values
	runNS     []float64            // per-cell run time, from the runner
	queueNS   []float64            // per-cell queue wait, from the runner
	runnerNS  float64              // wall time inside runner calls
	failed    map[campaign.FailureClass]int
	kept      []traceSpan
}

// keepCampaigns bounds the Chrome trace: a few dozen campaigns show the
// schedule, while every campaign still feeds the aggregates.
const keepCampaigns = 20

// cellSpan names the spans of cells on the runner's worker tracks.
const cellSpan = "campaign.cell"

type traceSpan struct {
	name       string
	cell       string
	parent     int
	tid        int
	start, end int64 // ns since the tracer's epoch
}

// layerAgg is one layer's share of the traced campaigns: a span's self
// time is its duration minus the part of it its child spans cover.
type layerAgg struct {
	Calls   int   `json:"calls"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		runner: -1,
		cells:  make(map[string]int),
		layers: make(map[string]*layerAgg),
		values: make(map[string][]float64),
		failed: make(map[campaign.FailureClass]int),
	}
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// begin opens a loop-track span nested in the innermost open one and
// returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.cur = append(t.cur, traceSpan{name: name, parent: parent, start: t.now()})
	id := len(t.cur) - 1
	t.stack = append(t.stack, id)
	return id
}

// beginRunner opens the span of a campaign.Runner call: the cells the
// runner settles until its end become its children.
func (t *tracer) beginRunner(name string) int {
	if t == nil {
		return -1
	}
	id := t.begin(name)
	t.mu.Lock()
	t.runner = id
	t.mu.Unlock()
	return id
}

// end closes the span begin returned, which must be the innermost.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.cur[id]
	s.end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
	if id == t.runner {
		t.runner = -1
		t.runnerNS += float64(s.end - s.start)
	}
}

// observe records a value sample under a metric name.
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.values[name] = append(t.values[name], v)
	t.mu.Unlock()
}

// startCampaign opens the campaign's root span.
func (t *tracer) startCampaign(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cur, t.stack = t.cur[:0], t.stack[:0]
	clear(t.cells)
	t.mu.Unlock()
	t.begin(name)
}

// finishCampaign closes the root span and folds the campaign's spans
// into the per-layer aggregates.
func (t *tracer) finishCampaign() {
	if t == nil {
		return
	}
	t.end(0)
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.cur))
	for i, s := range t.cur {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for i, s := range t.cur {
		dur := s.end - s.start
		a := t.layers[s.name]
		if a == nil {
			a = &layerAgg{}
			t.layers[s.name] = a
		}
		a.Calls++
		a.TotalNS += dur
		a.SelfNS += dur - t.covered(s, children[i])
		if s.name != cellSpan {
			t.values[s.name] = append(t.values[s.name], float64(dur))
		}
	}
	if t.campaigns < keepCampaigns {
		base := len(t.kept)
		for _, s := range t.cur {
			if s.parent >= 0 {
				s.parent += base
			}
			t.kept = append(t.kept, s)
		}
	}
	t.campaigns++
}

// covered is how much of s the child spans cover; children on parallel
// worker tracks overlap, so their union is measured, not their sum.
func (t *tracer) covered(s traceSpan, children []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(t.cur[c].start, s.start), min(t.cur[c].end, s.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, reach int64
	for _, v := range ivs {
		if v.lo < reach {
			v.lo = reach
		}
		if v.hi > v.lo {
			sum += v.hi - v.lo
			reach = v.hi
		}
	}
	return sum
}

// attach installs the tracer's runner hooks: the scheduler observer
// and, around an existing progress observer, the dump timer.
func (t *tracer) attach(r *campaign.Runner) {
	if t == nil {
		return
	}
	r.Sched = t
	if r.Progress != nil {
		r.Progress = timedProgress{Progress: r.Progress, tr: t}
	}
}

// BatchQueued implements campaign.SchedObserver.
func (t *tracer) BatchQueued([]string) {}

// CellDispatched implements campaign.SchedObserver: the cell's span
// opens on its worker's track.
func (t *tracer) CellDispatched(cell string, worker int, queueNS int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur = append(t.cur, traceSpan{name: cellSpan, cell: cell, parent: t.runner, tid: worker + 1, start: t.now()})
	t.cells[cell] = len(t.cur) - 1
	t.queueNS = append(t.queueNS, float64(queueNS))
}

// CellSettled implements campaign.SchedObserver.
func (t *tracer) CellSettled(cell string, worker int, _, runNS int64, _ *telemetry.CellProfile, cerr *campaign.CellError) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cerr != nil {
		t.failed[cerr.Class]++
	}
	id, ok := t.cells[cell]
	if !ok {
		return // canceled before any worker picked it up
	}
	delete(t.cells, cell)
	t.cur[id].end = t.now()
	t.runNS = append(t.runNS, float64(runNS))
}

// timedProgress times the flight recorder's dumps as children of the
// failing cell's span.
type timedProgress struct {
	campaign.Progress
	tr *tracer
}

func (p timedProgress) CellFinished(cell string, wall time.Duration, profile *telemetry.CellProfile, cerr *campaign.CellError) {
	if cerr == nil || profile == nil {
		p.Progress.CellFinished(cell, wall, profile, cerr)
		return
	}
	t := p.tr
	start := t.now()
	p.Progress.CellFinished(cell, wall, profile, cerr)
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, tid := -1, 0
	if id, ok := t.cells[cell]; ok {
		parent, tid = id, t.cur[id].tid
	}
	t.cur = append(t.cur, traceSpan{name: "obs.FlightRecorder.CellFinished", cell: cell, parent: parent, tid: tid, start: start, end: end})
}

// spanMetrics maps per-layer metrics to the harness span around the
// public call they time, with the scale from nanoseconds.
var spanMetrics = []struct {
	metric, span string
	scale        float64
}{
	{"report.render_ms", "report.Matrix", 1e-6},
	{"coverage.report_ms", "coverage.Collector.Report", 1e-6},
	{"span.forest_ms", "span.Collector.Forest", 1e-6},
	{"ledger.load_ms", "ledger.Open+LatestMatching", 1e-6},
	{"ledger.plan_us", "ledger.PlanDelta", 1e-3},
	{"ledger.equivalence_ms", "ledger.Equivalence", 1e-6},
	{"ledger.close_ms", "ledger.Writer.Close", 1e-6},
	{"obs.flight_dump_us", "obs.FlightRecorder.CellFinished", 1e-3},
}

// observedMetrics are recorded by the workloads with observe.
var observedMetrics = []string{"coverage.union_edges", "ledger.journal_kb", "obs.flight_dumps_per_campaign"}

// layerCallMetrics returns each layer-call metric the traced campaigns
// produced: the median call duration, and the mean of observed values.
// Calls a workload never makes are absent.
func (t *tracer) layerCallMetrics() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range spanMetrics {
		if vs := t.values[m.span]; len(vs) > 0 {
			out[m.metric] = median(vs) * m.scale
		}
	}
	for _, name := range observedMetrics {
		if vs := t.values[name]; len(vs) > 0 {
			out[name] = mean(vs)
		}
	}
	return out
}

// runnerMetrics summarizes what the scheduler observer saw.
func (t *tracer) runnerMetrics() map[string]float64 {
	n := float64(t.campaigns)
	return map[string]float64{
		"campaign.cell_run_us_p50":    median(t.runNS) / 1e3,
		"campaign.queue_wait_us_p50":  median(t.queueNS) / 1e3,
		"campaign.worker_utilization": sum(t.runNS) / (workers * t.runnerNS),
		"campaign.failed_cells.error": float64(t.failed[campaign.FailError]) / n,
		"campaign.failed_cells.panic": float64(t.failed[campaign.FailPanic]) / n,
		"campaign.failed_cells.hang":  float64(t.failed[campaign.FailHang]) / n,
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// writeChrome writes the kept spans as Chrome trace-event JSON, one
// track per runner worker beside the campaign loop's.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur,omitempty"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	events := []event{{Name: "thread_name", Ph: "M", PID: 1, TID: 0, Args: map[string]string{"name": "campaign loop"}}}
	for w := 0; w < workers; w++ {
		events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: w + 1,
			Args: map[string]string{"name": fmt.Sprintf("runner worker %d", w)}})
	}
	for _, s := range t.kept {
		e := event{Name: s.name, Ph: "X", TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, PID: 1, TID: s.tid}
		if s.cell != "" {
			e.Name, e.Args = s.cell, map[string]string{"layer": s.name}
		}
		events = append(events, e)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
