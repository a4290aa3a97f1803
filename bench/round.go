package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/exploits"
	"repro/internal/hv"
	"repro/internal/monitor"
	"repro/internal/telemetry"
)

// roundResult is what one round reports to the run.
type roundResult struct {
	// ReadyUnixNS marks the end of set-up.
	ReadyUnixNS int64     `json:"ready_unix_ns"`
	CampaignMS  []float64 `json:"campaign_ms"`
	Cells       int       `json:"cells"`
	WallNS      int64     `json:"wall_ns"`
	AllocBytes  uint64    `json:"alloc_bytes"`
	CPUNS       int64     `json:"cpu_ns"`
	// Attempted and Failed count cells: a campaign that errors or fails
	// its output check fails all the cells it was to produce.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`

	// Traced pass.
	Layers            map[string]float64   `json:"layers,omitempty"`
	SelfTime          map[string]*layerAgg `json:"self_time,omitempty"`
	UntracedCellsPerS float64              `json:"untraced_cells_per_s,omitempty"`
	TracedCellsPerS   float64              `json:"traced_cells_per_s,omitempty"`

	// Filled in by the run from the child process.
	SetupS    float64 `json:"setup_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// runRound sets the workload up and measures it. The untraced pass
// times campaigns for the round's budget. The traced pass runs every
// campaign both untraced and traced, so both see the same inputs and
// the same machine, then measures the layers the loop cannot see.
func runRound(o options, r int) (*roundResult, error) {
	scratch := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-round%d", o.workload, o.seed, r))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	e := env{root: o.root, scratch: scratch, seed: o.seed, variants: o.size.variants}
	w, err := newWorkload(o.workload, e)
	if err != nil {
		return nil, err
	}
	res := &roundResult{ReadyUnixNS: time.Now().UnixNano()}
	l := newLoop(o.workload, w, scratch, res)
	for k := 0; k < o.size.warmup; k++ {
		l.campaign(l.next, nil, nil)
		l.next++
	}
	if !o.trace {
		l.measure(o.size.budget, o.size.minCampaigns, pass{nil, res})
		return res, nil
	}

	var untraced, traced roundResult
	tr := newTracer()
	before := readRuntime()
	n := l.measure(o.size.budget, 1, pass{nil, &untraced}, pass{tr, &traced})
	after := readRuntime()
	res.UntracedCellsPerS = cellsPerS(&untraced)
	res.TracedCellsPerS = cellsPerS(&traced)

	res.Layers = tr.runnerMetrics()
	for name, v := range tr.layerCallMetrics() {
		res.Layers[name] = v
	}
	for name, v := range runtimeMetrics(before, after, n) {
		res.Layers[name] = v
	}
	life, err := lifecycle(o.size.lifecycle)
	if err != nil {
		return nil, fmt.Errorf("lifecycle pass: %w", err)
	}
	for name, v := range life {
		res.Layers[name] = v
	}
	res.Layers["campaign.engine_overhead_us_per_cell"] = median(tr.runNS)/1e3 -
		(life["campaign.fork_us"] + life["exploits.scenario_us"] + life["monitor.assess_us"] + life["campaign.recycle_us"])
	counts, err := countPass(w)
	if err != nil {
		return nil, fmt.Errorf("count pass: %w", err)
	}
	for name, v := range counts {
		res.Layers[name] = v
	}
	if err := probe(o, e, res); err != nil {
		return nil, fmt.Errorf("layer probe: %w", err)
	}
	res.SelfTime = tr.layers
	if r == 0 {
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
		if err := tr.writeChrome(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "trace: %s\n", path)
	}
	return res, nil
}

func cellsPerS(r *roundResult) float64 { return float64(r.Cells) / (float64(r.WallNS) / 1e9) }

// loop runs campaigns back to back, each in its own directory.
type loop struct {
	name    string
	w       workload
	scratch string
	cells   int          // cells a campaign's output must hold
	res     *roundResult // counts every campaign's cells, timed or not
	next    int          // the next campaign's index; variants rotate with it
}

func newLoop(name string, w workload, scratch string, res *roundResult) *loop {
	return &loop{name: name, w: w, scratch: scratch, cells: len(allCells()), res: res}
}

// roundCap stops a round's loop even short of its minimum campaign
// count, so a run ends within three minutes even if campaigns slow
// down a hundredfold.
const roundCap = 150 * time.Second / rounds

// pass is one way of running the loop's campaigns: traced or not, and
// where their timings go.
type pass struct {
	tr   *tracer
	into *roundResult
}

// measure times campaigns, each once per pass, until the budget is
// spent and at least minN campaigns ran, or roundCap passed. The pass
// order rotates from one campaign to the next, so running second does
// not favour one pass. It returns how many campaign runs it made.
func (l *loop) measure(budget time.Duration, minN int, passes ...pass) int {
	start := time.Now()
	for n := 0; ; n++ {
		el := time.Since(start)
		if (el >= budget && n >= minN) || el >= roundCap {
			return n * len(passes)
		}
		for k := range passes {
			p := passes[(n+k)%len(passes)]
			l.campaign(l.next, p.tr, p.into)
		}
		l.next++
	}
}

// campaign runs, times and checks campaign i; into, when non-nil,
// receives its timing.
func (l *loop) campaign(i int, tr *tracer, into *roundResult) {
	l.res.Attempted += l.cells
	fail := func(err error) {
		l.res.Failed += l.cells
		l.res.Errors = append(l.res.Errors, fmt.Sprintf("%s campaign %d: %v", l.name, i, err))
	}
	dir := filepath.Join(l.scratch, fmt.Sprintf("campaign-%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
		return
	}
	defer os.RemoveAll(dir)
	if err := l.w.prepare(i, dir); err != nil {
		fail(err)
		return
	}

	cpu0, alloc0 := cpuNS(), allocBytes()
	tr.startCampaign(l.name)
	start := time.Now()
	cells, check, err := l.w.run(i, dir, tr)
	wall := time.Since(start)
	tr.finishCampaign()
	cpu1, alloc1 := cpuNS(), allocBytes()

	if err == nil {
		err = check()
	}
	if err == nil && cells != l.cells {
		err = fmt.Errorf("%d cells in the output, want %d", cells, l.cells)
	}
	if err != nil {
		fail(err)
		return
	}
	if into != nil {
		into.CampaignMS = append(into.CampaignMS, float64(wall.Nanoseconds())/1e6)
		into.Cells += cells
		into.WallNS += wall.Nanoseconds()
		into.AllocBytes += alloc1 - alloc0
		into.CPUNS += cpu1 - cpu0
	}
}

// cpuNS is the process's user plus system CPU time.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes is the cumulative heap allocation, read without stopping
// the world.
func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// runtimeNames are the runtime/metrics the traced pass reads around
// its loop.
var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// runtimeMetrics differences two readings over n campaigns.
func runtimeMetrics(before, after []metrics.Sample, n int) map[string]float64 {
	f := func(i int) float64 {
		switch after[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(after[i].Value.Uint64() - before[i].Value.Uint64())
		case metrics.KindFloat64:
			return after[i].Value.Float64() - before[i].Value.Float64()
		}
		return math.NaN()
	}
	gcFraction := 0.0 // the CPU classes move only when a collection ends
	if total := f(2); total > 0 {
		gcFraction = f(1) / total
	}
	out := map[string]float64{
		"runtime.gc_cycles_per_campaign":     f(0) / float64(n),
		"runtime.gc_cpu_fraction":            gcFraction,
		"runtime.mutex_wait_us_per_campaign": f(3) * 1e6 / float64(n),
		"runtime.sched_latency_us_p99":       math.NaN(),
	}
	if after[4].Value.Kind() == metrics.KindFloat64Histogram {
		out["runtime.sched_latency_us_p99"] = histQuantile(before[4].Value.Float64Histogram(), after[4].Value.Float64Histogram(), 0.99) * 1e6
	}
	return out
}

// histQuantile is the q-quantile of the observations between two
// readings of a cumulative histogram, interpolated within its bucket.
func histQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i := range counts {
		counts[i] = after.Counts[i] - before.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return math.NaN()
	}
	target := q * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 || seen+float64(c) < target {
			seen += float64(c)
			continue
		}
		lo, hi := after.Buckets[i], after.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			return lo
		}
		return lo + (hi-lo)*(target-seen)/float64(c)
	}
	return after.Buckets[len(after.Buckets)-1]
}

// lifecycle times a cell's steps one by one through the public API —
// fork, scenario, assess, recycle — over every cell of the matrix, and
// checks each verdict against a serial campaign's. Sweep 0 warms the
// fork pools and is not recorded. It also times snapshot builds. Each
// step reports its median, which a collection landing in one call
// does not move.
func lifecycle(sweeps int) (map[string]float64, error) {
	ref, err := (&campaign.Runner{Workers: 1}).RunMatrixContext(ctx)
	if err != nil {
		return nil, err
	}
	var fork, scen, assess, recycle []float64
	for sweep := 0; sweep <= sweeps; sweep++ {
		for _, e := range ref {
			v, err := hv.VersionByName(e.Version)
			if err != nil {
				return nil, err
			}
			spec, err := exploits.SpecByName(e.UseCase)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			envr, release, err := campaign.NewForkedEnvironment(v, e.Mode)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			senv, err := envr.ScenarioEnv(e.Mode)
			if err != nil {
				return nil, err
			}
			outcome := spec.Run(senv)
			t2 := time.Now()
			verdict := monitor.Assess(envr.HV, envr.Guests, outcome)
			t3 := time.Now()
			release()
			t4 := time.Now()
			if want := e.Result.Verdict; verdict.ErroneousState != want.ErroneousState || verdict.SecurityViolation != want.SecurityViolation {
				return nil, fmt.Errorf("cell %s/%s/%s: verdict differs from the campaign's", e.Version, e.UseCase, e.Mode)
			}
			if sweep > 0 {
				fork = append(fork, float64(t1.Sub(t0)))
				scen = append(scen, float64(t2.Sub(t1)))
				assess = append(assess, float64(t3.Sub(t2)))
				recycle = append(recycle, float64(t4.Sub(t3)))
			}
		}
	}
	var builds []float64
	for rep := 0; rep < 3; rep++ {
		for _, v := range hv.Versions() {
			for _, mode := range []campaign.Mode{campaign.ModeExploit, campaign.ModeInjection} {
				t0 := time.Now()
				if err := campaign.BuildSnapshot(v, mode); err != nil {
					return nil, err
				}
				builds = append(builds, float64(time.Since(t0)))
			}
		}
	}
	return map[string]float64{
		"campaign.fork_us":           median(fork) / 1e3,
		"exploits.scenario_us":       median(scen) / 1e3,
		"monitor.assess_us":          median(assess) / 1e3,
		"campaign.recycle_us":        median(recycle) / 1e3,
		"campaign.snapshot_build_ms": median(builds) / 1e6,
	}, nil
}

// countPass runs one campaign of the workload's cells with a telemetry
// registry and turns its counters into per-cell work counts. The counts
// are deterministic: they change only when the work a cell does does.
func countPass(w workload) (map[string]float64, error) {
	r, refs := w.countPass()
	reg := telemetry.NewRegistry()
	r.Workers, r.Telemetry = workers, reg
	if r.Faults != nil {
		defer r.Faults.ReleaseAll()
	}
	if _, err := r.RunCellRefs(ctx, refs); err != nil {
		return nil, err
	}
	c := make(map[string]uint64)
	var hypercalls uint64
	for _, cv := range reg.Snapshot() {
		c[cv.Name] = cv.Value
		if strings.HasPrefix(cv.Name, "hypercall.") && cv.Name != "hypercall.errors" {
			hypercalls += cv.Value
		}
	}
	profiles := reg.CellProfiles()
	if len(profiles) == 0 {
		return nil, fmt.Errorf("no cell was profiled")
	}
	var emitted, dropped float64
	for _, p := range profiles {
		var sinkErrors uint64
		for _, cv := range p.Counters {
			if cv.Name == "telemetry.sink_errors" {
				sinkErrors = cv.Value
			}
		}
		emitted += float64(uint64(len(p.Events)) + p.DroppedEvents - sinkErrors)
		dropped += float64(p.DroppedEvents)
	}
	n := float64(len(profiles))
	per := func(v uint64) float64 { return float64(v) / n }
	return map[string]float64{
		"hv.hypercalls_per_cell":         per(hypercalls),
		"hv.hypercall_errors_per_cell":   per(c["hypercall.errors"]),
		"hv.validation_rejects_per_cell": per(c["validation.reject"]),
		"hv.walk_faults_per_cell":        per(c["walk.fault"]),
		"mm.frame_allocs_per_cell":       per(c["frames.alloc"]),
		"mm.pagetype_gets_per_cell":      per(c["pagetype.get"]),
		"inject.ops_per_cell":            per(c["injector.ops"]),
		"exploits.steps_per_cell":        per(c["scenario.steps"]),
		"monitor.evidence_per_cell":      per(c["monitor.evidence"]),
		"telemetry.events_per_cell":      emitted / n,
		"telemetry.dropped_per_cell":     dropped / n,
		"telemetry.ring_fill_ratio":      emitted / n / telemetry.DefaultRingCapacity,
	}, nil
}

// probe fills in the layer-call metrics the measured workload never
// produces — coverage and spans outside artifacts, the ledger outside
// artifacts and resume, flight dumps outside chaos — by tracing a few
// campaigns of a workload that makes those calls.
func probe(o options, e env, res *roundResult) error {
	for _, name := range []string{"artifacts", "resume", "chaos"} {
		if name == o.workload {
			continue
		}
		if !missingLayerCall(res.Layers) {
			return nil
		}
		pe := e
		pe.scratch = filepath.Join(e.scratch, "probe-"+name)
		pe.variants = 1
		w, err := newWorkload(name, pe)
		if err != nil {
			return err
		}
		tr := newTracer()
		l := newLoop(name, w, pe.scratch, res)
		for k := 0; k < o.size.probes; k++ {
			l.campaign(l.next, tr, nil)
			l.next++
		}
		for m, v := range tr.layerCallMetrics() {
			if _, ok := res.Layers[m]; !ok {
				res.Layers[m] = v
			}
		}
	}
	return nil
}

func missingLayerCall(layers map[string]float64) bool {
	for _, m := range spanMetrics {
		if _, ok := layers[m.metric]; !ok {
			return true
		}
	}
	for _, m := range observedMetrics {
		if _, ok := layers[m]; !ok {
			return true
		}
	}
	return false
}
