package campaign

import (
	"context"
	"fmt"
	"log/slog"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coverage"
	"repro/internal/exploits"
	"repro/internal/faults"
	"repro/internal/hv"
	"repro/internal/monitor"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// The parallel campaign engine. Every cell of the paper's evaluation
// runs "in a fresh environment" by design — no state is shared between
// runs — so the registry-sized matrix is embarrassingly parallel. The
// Runner
// fans cells out to a worker pool of goroutine-owned environments and
// reassembles the results in deterministic cell order, so the rendered
// tables are byte-identical to the serial path no matter how many
// workers raced to produce them.
//
// The engine is also fault-tolerant, because a campaign that injects
// erroneous states for a living must survive its own substrate
// misbehaving: every cell runs under a recover() barrier (a panicking
// cell becomes a per-cell error record with a stack, and the pool keeps
// draining), under a watchdog deadline (a runaway cell is classified as
// a hang instead of wedging the run), and under a context (cancellation
// classifies unfinished cells instead of abandoning the batch).

// Runner executes campaign cells on a configurable worker pool.
// The zero value uses one worker per available CPU.
type Runner struct {
	// Workers is the worker-pool size. Zero means GOMAXPROCS; negative
	// values are clamped to 1 (the CLI rejects them before they get
	// here, and a library caller passing a negative by accident gets
	// the strictly serial debug path rather than a surprise fan-out).
	// Workers == 1 runs cells strictly serially in cell order, kept for
	// debugging. Failure semantics are identical at any pool size:
	// every cell runs to completion and the first error in cell order
	// is reported.
	Workers int

	// Telemetry, when set, profiles every cell: each gets a fresh
	// per-environment Recorder, and its counters, wall time and retained
	// events are snapshotted into RunResult.Profile and merged into the
	// registry. Nil disables profiling at near-zero cost.
	Telemetry *telemetry.Registry

	// Faults, when set, arms the substrate fault-injection plane for
	// every cell: each gets the injector the plan derives for its cell
	// identity, wired through the hypervisor build into the machine
	// allocator, the hypercall dispatcher and the telemetry sink. Nil
	// disables fault injection.
	Faults *faults.Plan

	// ContinueOnError keeps the campaign going past failing cells:
	// instead of reporting the first error in cell order, the returned
	// matrix entries carry a per-cell *CellError record for every failed
	// cell alongside the successful results. The projections whose row
	// shapes need every cell (Fig4Rows, Table3Rows, Scores) then fail on
	// the first failed entry they need; the JSON export keeps every
	// record and omits the scores. The default (false) preserves
	// first-error-in-cell-order semantics exactly. Either way the
	// projections read one run's entries, so a failing cell runs (and is
	// flight-recorded) once however many experiments read it.
	ContinueOnError bool

	// CellTimeout is the per-cell watchdog deadline. A cell that blows
	// it is abandoned and classified as a hang-class failure rather
	// than wedging the whole run. Zero means DefaultCellTimeout;
	// negative disables the watchdog.
	CellTimeout time.Duration

	// Progress, when set, observes every settled cell live, including
	// each failed cell's telemetry profile where one could be salvaged:
	// the flight recorder's hook. Batch announcement and dispatch reach
	// the Sched, Spans and Coverage hooks instead. Implementations must
	// be safe for concurrent use — workers notify in parallel. Nil
	// disables observation at no cost.
	Progress Progress

	// SalvageProfiles gives every cell a telemetry recorder even
	// without a Telemetry registry, solely so a failing cell's event
	// ring reaches the Progress observer (the flight recorder).
	// Successful cells are unaffected — no Profile is attached to their
	// results and nothing is merged anywhere — so rendered tables and
	// JSON exports stay byte-identical to an unprofiled run.
	SalvageProfiles bool

	// Spans, when set, captures a causal span tree per cell — cell →
	// phase → hypercall/mm-op — and assembles the campaign's span
	// forest. Each cell gets a recorder (as with SalvageProfiles) so the
	// tree's virtual clock is the cell's event counter; results and
	// rendered tables stay byte-identical to an uninstrumented run. Nil
	// disables span capture.
	Spans *span.Collector

	// Coverage, when set, accumulates a deterministic coverage map per
	// cell — behaviour edges derived from the telemetry stream — and
	// aggregates the campaign union with dispatch-order new-edge
	// attribution. Each cell gets a recorder (as with SalvageProfiles)
	// to feed its map; results and rendered tables stay byte-identical
	// to an uninstrumented run. Nil disables coverage.
	Coverage *coverage.Collector

	// Sched, when set, observes the wall-clock schedule: batch queueing
	// and per-cell dispatch/settle with worker identity, queue wait and
	// run time. It feeds the live event bus and the scheduler timeline —
	// pure observation, never deterministic artifacts. Implementations
	// must be safe for concurrent use. Nil disables it at no cost.
	Sched SchedObserver

	// Log, when set, receives structured scheduling logs (cell
	// dispatched/settled/failed with worker and verdict attrs) at Debug
	// and Warn. Nil (the default) is silent and free.
	Log *slog.Logger

	// Observer, when set, receives every settled cell's full outcome —
	// verdict or failure record, profile, coverage map, span length,
	// wall time — exactly once: the hook the run record implements.
	// Setting it gives every cell a recorder, a profile, a coverage map
	// and a span tree (as with SalvageProfiles / Coverage / Spans); only
	// the observer sees the profile, so results and rendered tables stay
	// byte-identical to an unobserved run. Must be concurrency-safe.
	Observer CellObserver
}

// CellObserver observes settled cells with their full outcomes. The
// hook fires on the worker goroutine that settled the cell — once per
// cell, every outcome class included (canceled cells carry only their
// failure record) — so implementations must synchronize internally and
// return quickly.
type CellObserver interface {
	// CellSettled delivers one cell's settled outcome. Exactly one of
	// res/cerr is non-nil. profile and cov are the cell's telemetry
	// snapshot (a failed cell's salvage profile) and coverage map (both
	// nil for abandoned cells), spanV its span tree's virtual length,
	// and wall its observed wall time.
	CellSettled(cell CellRef, res *RunResult, cerr *CellError, profile *telemetry.CellProfile, cov *coverage.Map, spanV uint64, wall time.Duration)
}

// SchedObserver observes the engine's wall-clock scheduling decisions:
// which worker ran which cell, how long the cell waited in the queue,
// and how long it ran. The hooks fire on the worker goroutines, so
// implementations must synchronize internally and return quickly.
// Everything it sees is wall-clock observability — feeding it back into
// campaign results or artifacts would break their determinism.
type SchedObserver interface {
	// BatchQueued announces the cells about to be dispatched, in cell
	// order, before any of them runs.
	BatchQueued(cells []string)
	// CellDispatched fires when a worker picks the cell up. queueNS is
	// the wall time the cell spent announced-but-undispatched.
	CellDispatched(cell string, worker int, queueNS int64)
	// CellSettled fires when the engine settles the cell — exactly once
	// per cell, every outcome class included. worker is -1 and queueNS 0
	// for cells canceled before any worker picked them up. runNS is the
	// observed run time; profile is the cell's telemetry snapshot when
	// one was salvaged (nil otherwise); cerr is nil on success.
	CellSettled(cell string, worker int, queueNS, runNS int64, profile *telemetry.CellProfile, cerr *CellError)
}

// Progress observes a running campaign's settled cells. The hook fires
// on the worker goroutine that settled the cell, so implementations
// must synchronize internally and return quickly. It sees no batch
// announcement and no dispatch; a SchedObserver does.
type Progress interface {
	// CellFinished fires when the engine settles the cell's outcome:
	// cerr is nil on success; profile is the cell's telemetry snapshot
	// when the runner profiles cells and the cell's goroutine could be
	// snapshotted (success, error and panic outcomes — hung and
	// canceled cells are abandoned with their recorder, so their
	// profile is nil). It fires exactly once per cell, every outcome
	// class included.
	CellFinished(cell string, wall time.Duration, profile *telemetry.CellProfile, cerr *CellError)
}

// DefaultCellTimeout is the watchdog deadline applied when
// Runner.CellTimeout is zero. A healthy cell completes in well under a
// millisecond; five orders of magnitude of headroom keeps the watchdog
// out of every legitimate run while still unwedging a stuck matrix in
// human time.
const DefaultCellTimeout = 30 * time.Second

// workers resolves the configured pool size.
func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	if r.Workers < 0 {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// cellTimeout resolves the watchdog deadline (0 = disabled).
func (r *Runner) cellTimeout() time.Duration {
	switch {
	case r.CellTimeout < 0:
		return 0
	case r.CellTimeout == 0:
		return DefaultCellTimeout
	}
	return r.CellTimeout
}

// FailureClass buckets how a campaign cell failed.
type FailureClass string

// Failure classes.
const (
	// FailError is an ordinary error return from the cell.
	FailError FailureClass = "error"
	// FailPanic is a recovered panic in the cell's worker.
	FailPanic FailureClass = "panic"
	// FailHang is a cell that exceeded the watchdog deadline.
	FailHang FailureClass = "hang"
	// FailCanceled is a cell cut short by context cancellation.
	FailCanceled FailureClass = "canceled"
)

// CellError is the per-cell failure record a fault-tolerant campaign
// carries instead of dying: which cell, how it failed, and — for panics
// — the sanitized stack of the worker goroutine.
type CellError struct {
	// Cell is the failing cell's "version/use-case/mode" identity.
	Cell string `json:"cell"`
	// Class buckets the failure.
	Class FailureClass `json:"class"`
	// Message is the error or panic text.
	Message string `json:"message"`
	// Stack is the panicking goroutine's stack, with goroutine header
	// and hex addresses normalized so identical faults produce
	// identical records at any worker count. Empty unless Class is
	// FailPanic.
	Stack string `json:"stack,omitempty"`

	cause error
}

// Error renders the record as "class: message".
func (e *CellError) Error() string { return string(e.Class) + ": " + e.Message }

// Unwrap exposes the underlying error (nil for panics and hangs).
func (e *CellError) Unwrap() error { return e.cause }

// hexLiteral and goroutineID match the parts of a panic stack that vary
// run to run (argument values, frame pointers, scheduler-assigned
// goroutine numbers in "created by ... in goroutine N" lines) —
// everything else in the stack is a property of the binary, so
// normalizing these makes the record deterministic at any worker count.
var (
	hexLiteral  = regexp.MustCompile(`0x[0-9a-fA-F]+`)
	goroutineID = regexp.MustCompile(`goroutine \d+`)
)

// sanitizeStack strips the "goroutine N [running]:" header and
// normalizes hex literals and goroutine numbers, keeping the function
// names and file:line frames a diagnosis needs.
func sanitizeStack(stack []byte) string {
	lines := strings.Split(strings.TrimRight(string(stack), "\n"), "\n")
	if len(lines) > 0 && strings.HasPrefix(lines[0], "goroutine ") {
		lines = lines[1:]
	}
	s := hexLiteral.ReplaceAllString(strings.Join(lines, "\n"), "0x?")
	return goroutineID.ReplaceAllString(s, "goroutine ?")
}

// cell is one (version, use case, mode) coordinate of a campaign,
// resolved: spec points into the plan's registry copy, so a cell
// carries its scenario from enumeration to settle without another
// lookup.
type cell struct {
	version hv.Version
	spec    *exploits.Spec
	mode    Mode
}

// plan is the version-independent part of the experimental setup,
// precomputed once per process instead of once per run: the scenario
// registry (declarative specs in campaign order), the version profiles,
// and the domain/IP layout of the standard environment. Everything in
// it is immutable after construction, so concurrent workers may share
// it freely.
type plan struct {
	specs      []exploits.Spec
	versions   []hv.Version
	guestNames []string
	guestIPs   []string
}

var (
	planOnce   sync.Once
	sharedPlan *plan
)

// campaignPlan returns the shared warm-boot prototype.
func campaignPlan() *plan {
	planOnce.Do(func() {
		p := &plan{specs: exploits.Specs(), versions: hv.Versions()}
		p.guestIPs = []string{"10.3.1.178", "10.3.1.179", AttackerIP}
		for i := range p.guestIPs {
			p.guestNames = append(p.guestNames, fmt.Sprintf("guest%02d", i+1))
		}
		sharedPlan = p
	})
	return sharedPlan
}

// spec resolves a use-case name to its spec in the plan's registry
// copy, whose order is the registry's, without allocating.
func (p *plan) spec(useCase string) (*exploits.Spec, error) {
	i, err := exploits.SpecIndex(useCase)
	if err != nil {
		return nil, err
	}
	return &p.specs[i], nil
}

// resolve turns a ref into a cell: the version is one of the plan's
// profiles and the spec a pointer into its registry copy.
func (p *plan) resolve(ref CellRef) (cell, error) {
	for _, v := range p.versions {
		if v.Name != ref.Version {
			continue
		}
		s, err := p.spec(ref.UseCase)
		return cell{version: v, spec: s, mode: ref.Mode}, err
	}
	_, err := hv.VersionByName(ref.Version)
	return cell{}, err
}

// String renders the cell's trace identity, "version/use-case/mode".
func (c cell) String() string {
	return c.version.Name + "/" + c.spec.Name + "/" + string(c.mode)
}

// runScenario executes one cell's lifecycle in its own fresh
// environment: boot (or fork), run the scenario in the cell's mode,
// assess. It is the cell body runGuarded owns; nothing it touches
// outlives the cell or is shared with another cell. rec and inj are the
// cell's own recorder and fault injector (either may be nil). tree,
// when non-nil, is the cell's span tree: the lifecycle phases (boot,
// exploit/inject, assess) open under its root, and the environment is
// built with the tree installed so hypercall and mm-op spans nest
// inside them. Error returns leave the failing phase open — the
// caller's Abort closes and marks it. The returned recycle func is
// non-nil only for a forked environment; the caller invokes it once the
// cell has settled cleanly.
func runScenario(c cell, rec *telemetry.Recorder, inj *faults.Injector, tree *span.Tree) (*RunResult, func(), error) {
	boot := tree.Phase(span.PhaseBoot)
	e, recycle, err := cellEnvironment(campaignPlan(), c, rec, inj, tree)
	if err != nil {
		return nil, nil, err
	}
	env, err := e.ScenarioEnv(c.mode)
	if err != nil {
		return nil, nil, err
	}
	tree.End(boot)
	// The attack phase is named after the cell's mode, so exploit and
	// injection trees for the same use case stay distinguishable.
	attack := span.PhaseExploit
	if c.mode == ModeInjection {
		attack = span.PhaseInject
	}
	ap := tree.Phase(attack)
	outcome := c.spec.Run(env)
	tree.End(ap)
	as := tree.Phase(span.PhaseAssess)
	verdict := monitor.Assess(e.HV, e.Guests, outcome)
	tree.End(as)
	return &RunResult{Outcome: outcome, Verdict: verdict, Console: e.HV.Console()}, recycle, nil
}

// instrumentation is what every cell of a batch carries, resolved once
// per batch from the Runner's hooks so the cell body, its finish and
// the batch announcement all read the same decision.
type instrumentation struct {
	// recorder gives each cell a telemetry recorder.
	recorder bool
	// coverage attaches a coverage map to the recorder.
	coverage bool
	// spans gives each cell a span tree.
	spans bool
	// profile snapshots a successful cell's profile.
	profile bool
	// announce tells the batch-aware hooks — the span and coverage
	// collectors, the schedule observer and the log — about the batch
	// before any of its cells runs, so each can settle the batch in
	// dispatch order whatever order its cells finish in.
	announce bool
}

// instrumentation resolves the per-batch instrumentation decision.
func (r *Runner) instrumentation() instrumentation {
	return instrumentation{
		recorder: r.Telemetry != nil || r.SalvageProfiles || r.Spans != nil || r.Coverage != nil || r.Observer != nil,
		coverage: r.Coverage != nil || r.Observer != nil,
		spans:    r.Spans != nil || r.Observer != nil,
		profile:  r.Telemetry != nil || r.Observer != nil,
		announce: r.Spans != nil || r.Coverage != nil || r.Sched != nil || r.Log != nil,
	}
}

// cellOutcome pairs one cell's result with its failure record; exactly
// one of res/err is set. profile carries the cell's telemetry snapshot
// when one exists — on failure it is the salvage profile the flight
// recorder dumps. tree carries the cell's span capture when the runner
// collects spans; sending it over the outcome channel is what hands
// tree ownership from the cell goroutine back to the worker (an
// abandoned cell keeps its tree, and the worker records a stub).
type cellOutcome struct {
	res     *RunResult
	err     *CellError
	profile *telemetry.CellProfile
	tree    *span.Tree
	cov     *coverage.Map
}

// finishCell assembles a cell's outcome on its own goroutine, the one
// place every exit of the cell body — clean return, error, recovered
// panic — passes through. It closes the span tree (Finish on success,
// Abort marking the failing phase otherwise), snapshots the telemetry
// profile, attaches a successful one to the result and the registry
// when the runner has a registry, and returns a cleanly completed fork
// to the snapshot pool. A failed cell carries its salvage profile for
// the flight recorder.
func (r *Runner) finishCell(id string, in instrumentation, res *RunResult, cerr *CellError, rec *telemetry.Recorder, tree *span.Tree, start time.Time, recycle func(), abandoned *atomic.Bool) cellOutcome {
	out := cellOutcome{res: res, err: cerr, tree: tree, cov: rec.Coverage()}
	if cerr != nil {
		tree.Abort()
		out.profile = rec.Profile(id, time.Since(start).Nanoseconds())
	} else {
		if in.profile {
			out.profile = rec.Profile(id, time.Since(start).Nanoseconds())
			if r.Telemetry != nil {
				res.Profile = out.profile
				r.Telemetry.Record(out.profile)
			}
		}
		tree.Finish()
		// Only a cleanly completed cell that the runner is still waiting
		// for returns its machine fork to the snapshot pool; a failed cell
		// — and a cell the watchdog or a cancellation already wrote off,
		// even if it later unwedges and finishes — abandons a possibly
		// poisoned fork to the collector instead.
		if recycle != nil && !abandoned.Load() {
			recycle()
		}
	}
	return out
}

// runGuarded executes one cell behind the engine's fault barriers: a
// recover() that converts a worker panic into a FailPanic record (with
// sanitized stack), a watchdog that classifies a runaway cell as
// FailHang, and the context, which classifies a cancelled cell as
// FailCanceled. The cell body runs on its own goroutine so the worker
// can abandon it; an abandoned body parks on a buffered channel and
// exits when it eventually finishes (or is released from a wedge), so
// nothing leaks once the campaign's injectors are released. The Sched
// and Log hooks hear of the dispatch before the body starts.
func (r *Runner) runGuarded(ctx context.Context, c cell, in instrumentation, worker int, queuedAt time.Time) cellOutcome {
	id := c.String()
	if err := ctx.Err(); err != nil {
		return r.settle(c, id, -1, time.Time{}, 0, 0, cellOutcome{err: &CellError{Cell: id, Class: FailCanceled, Message: err.Error(), cause: err}})
	}
	var inj *faults.Injector
	if r.Faults != nil {
		inj = r.Faults.ForCell(id)
	}
	began := time.Now()
	queueNS := began.Sub(queuedAt).Nanoseconds()
	if queueNS < 0 {
		queueNS = 0
	}
	if r.Sched != nil {
		r.Sched.CellDispatched(id, worker, queueNS)
	}
	if r.Log != nil {
		r.Log.Debug("cell dispatched", "cell", id, "worker", worker, "queue_ns", queueNS)
	}
	done := make(chan cellOutcome, 1)
	// abandoned flips once the worker stops waiting (watchdog, cancel):
	// from then on the cell body, should it ever finish, must not
	// recycle its machine fork into the snapshot pool.
	var abandoned atomic.Bool
	// The cell body runs under pprof labels so CPU and goroutine
	// profiles of a live campaign attribute samples to the cell, its
	// scenario and its hypervisor version.
	go pprof.Do(ctx, pprof.Labels(
		"cell", id,
		"scenario", c.spec.Name,
		"version", c.version.Name,
	), func(context.Context) {
		// The cell's recorder and span tree live on this goroutine so a
		// panicking or erroring cell can still be snapshotted for the
		// flight recorder and the span forest. The watchdog/cancel paths
		// abandon the goroutine, the recorder and the tree with it —
		// they must never touch them.
		var rec *telemetry.Recorder
		var tree *span.Tree
		var start time.Time
		if in.recorder {
			rec = telemetry.NewRecorder(0)
			start = time.Now()
		}
		if in.coverage {
			rec.AttachCoverage(coverage.NewMap())
		}
		if in.spans {
			tree = span.NewTree(id, rec.Emitted)
		}
		var (
			res     *RunResult
			recycle func()
			cerr    *CellError
		)
		defer func() {
			if p := recover(); p != nil {
				res, cerr = nil, &CellError{
					Cell:    id,
					Class:   FailPanic,
					Message: fmt.Sprint(p),
					Stack:   sanitizeStack(debug.Stack()),
				}
			}
			done <- r.finishCell(id, in, res, cerr, rec, tree, start, recycle, &abandoned)
		}()
		var err error
		if res, recycle, err = runScenario(c, rec, inj, tree); err != nil {
			cerr = &CellError{Cell: id, Class: FailError, Message: err.Error(), cause: err}
		}
	})

	var watchdog <-chan time.Time
	if d := r.cellTimeout(); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		watchdog = t.C
	}
	var out cellOutcome
	select {
	case out = <-done:
	case <-watchdog:
		abandoned.Store(true)
		out.err = &CellError{
			Cell:    id,
			Class:   FailHang,
			Message: fmt.Sprintf("cell exceeded the %s watchdog deadline", r.cellTimeout()),
		}
	case <-ctx.Done():
		abandoned.Store(true)
		out.err = &CellError{Cell: id, Class: FailCanceled, Message: ctx.Err().Error(), cause: ctx.Err()}
	}
	return r.settle(c, id, worker, began, queueNS, time.Since(began), out)
}

// settle notifies the observers of a cell's settled outcome, files its
// span capture and coverage map, and passes it through. Every cell
// outcome — success, error, panic, hang, cancel, even cells never
// dispatched — funnels through here, so the coverage collector sees
// exactly one FinishCell per cell (abandoned cells file a nil map,
// which settles as empty coverage deterministically). A dispatched cell
// (non-zero began) also files its span capture with the collector; an
// abandoned cell (hang, cancel while running) carries no tree — its
// stub records only worker, wall placement and failure class, and the
// racing goroutine keeps its tree. Cells canceled before dispatch file
// no spans. id is c's trace identity, rendered once by the caller.
func (r *Runner) settle(c cell, id string, worker int, began time.Time, queueNS int64, wall time.Duration, out cellOutcome) cellOutcome {
	if r.Spans != nil && !began.IsZero() {
		cs := &span.CellSpans{
			Cell:     id,
			Worker:   worker,
			OffsetNS: began.Sub(r.Spans.Epoch()).Nanoseconds(),
			WallNS:   wall.Nanoseconds(),
			Tree:     out.tree,
		}
		if out.err != nil {
			cs.Class = string(out.err.Class)
		}
		r.Spans.FinishCell(cs)
	}
	if r.Coverage != nil {
		r.Coverage.FinishCell(id, out.cov)
	}
	if r.Observer != nil {
		ref := CellRef{Version: c.version.Name, UseCase: c.spec.Name, Mode: c.mode}
		r.Observer.CellSettled(ref, out.res, out.err, out.profile, out.cov, rootSpanV(out.tree), wall)
	}
	if r.Progress != nil {
		r.Progress.CellFinished(id, wall, out.profile, out.err)
	}
	if r.Sched != nil {
		r.Sched.CellSettled(id, worker, queueNS, wall.Nanoseconds(), out.profile, out.err)
	}
	if r.Log != nil {
		if out.err != nil {
			r.Log.Warn("cell failed", "cell", id, "worker", worker,
				"wall_ns", wall.Nanoseconds(), "class", string(out.err.Class), "error", out.err.Message)
		} else {
			r.Log.Debug("cell settled", "cell", id, "worker", worker,
				"wall_ns", wall.Nanoseconds(),
				"err_state", out.res.Verdict.ErroneousState,
				"sec_viol", out.res.Verdict.SecurityViolation)
		}
	}
	return out
}

// rootSpanV is the virtual-time length of a settled cell's span tree
// (its root span's duration), 0 for abandoned cells that kept no tree.
func rootSpanV(t *span.Tree) uint64 {
	if t == nil {
		return 0
	}
	spans := t.Spans()
	if len(spans) == 0 {
		return 0
	}
	return spans[0].EndV - spans[0].StartV
}

// runCells executes a batch of cells and returns one outcome per cell,
// in cell order, never failing as a whole: panics, hangs and
// cancellation all land as per-cell records. On cancellation, cells
// never dispatched are marked FailCanceled without running, on worker
// -1. A one-worker pool runs the cells strictly in cell order on
// worker 0.
func (r *Runner) runCells(ctx context.Context, cells []cell) []cellOutcome {
	outs := make([]cellOutcome, len(cells))
	in := r.instrumentation()
	if in.announce {
		ids := make([]string, len(cells))
		for i, c := range cells {
			ids[i] = c.String()
		}
		if r.Spans != nil {
			r.Spans.StartBatch(ids)
		}
		if r.Coverage != nil {
			r.Coverage.StartBatch(ids)
		}
		if r.Sched != nil {
			r.Sched.BatchQueued(ids)
		}
		if r.Log != nil {
			r.Log.Info("batch queued", "cells", len(ids), "workers", r.workers())
		}
	}
	// queuedAt anchors every cell's queue-wait measurement: a cell is
	// runnable from the moment its batch is announced, so its dispatch
	// latency is pickup time minus this.
	queuedAt := time.Now()
	n := r.workers()
	if n > len(cells) {
		n = len(cells)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func(w int) {
			defer wg.Done()
			for i := range next {
				outs[i] = r.runGuarded(ctx, cells[i], in, w, queuedAt)
			}
		}(w)
	}
	for i := range cells {
		select {
		case next <- i:
		case <-ctx.Done():
			err := ctx.Err()
			for j := i; j < len(cells); j++ {
				id := cells[j].String()
				outs[j] = r.settle(cells[j], id, -1, time.Time{}, 0, 0, cellOutcome{err: &CellError{
					Cell: id, Class: FailCanceled, Message: err.Error(), cause: err,
				}})
			}
			close(next)
			wg.Wait()
			return outs
		}
	}
	close(next)
	wg.Wait()
	return outs
}

// RunContext executes one cell under the runner's configuration: the
// single-cell entry point behind the CLI's -cell flag. An unknown use
// case fails before anything is announced. The cell is a one-cell
// batch, announced and settled like any campaign batch, so a panicking
// or wedged cell reports a classified error instead of killing the
// caller, and cancellation classifies the cell as canceled instead of
// letting it run to completion.
func (r *Runner) RunContext(ctx context.Context, v hv.Version, useCase string, mode Mode) (*RunResult, error) {
	spec, err := campaignPlan().spec(useCase)
	if err != nil {
		return nil, err
	}
	out := r.runCells(ctx, []cell{{version: v, spec: spec, mode: mode}})[0]
	if out.err != nil {
		return nil, out.err.surfaced()
	}
	return out.res, nil
}

// RunMatrixContext executes the full campaign — every version, every
// registry spec applicable to it, both modes, each cell in a fresh
// environment — across the pool. Under ContinueOnError it never fails:
// every cell appears in the returned entries, failed ones carrying
// their *CellError in Err with a nil Result.
func (r *Runner) RunMatrixContext(ctx context.Context) ([]MatrixEntry, error) {
	p := campaignPlan()
	names := make([]string, len(p.versions))
	for i, v := range p.versions {
		names[i] = v.Name
	}
	return r.RunCellRefs(ctx, MatrixRefs(names, p.specs))
}

// surfaced is the error a failed cell reports when it stops its caller.
// Plain errors surface exactly as the cell returned them (the cause, not
// the record), preserving the engine's messages byte for byte; the
// classes that used to kill or wedge the process surface as their
// records.
func (e *CellError) surfaced() error {
	if e.Class == FailError {
		return e.cause
	}
	return e
}

// CellRef identifies one campaign cell by name — the resumable-campaign
// currency: a run-ledger delta plan is a list of refs in dispatch order.
type CellRef struct {
	Version string
	UseCase string
	Mode    Mode
}

// MatrixRefs enumerates the campaign matrix over versions and specs in
// dispatch order: version-major, then spec order, exploit before
// injection, skipping specs that do not apply to a version. It is the
// one definition of which cells a campaign holds and in what order.
func MatrixRefs(versions []string, specs []exploits.Spec) []CellRef {
	refs := make([]CellRef, 0, 2*len(versions)*len(specs))
	for _, v := range versions {
		for i := range specs {
			if !specs[i].AppliesTo(v) {
				continue
			}
			for _, mode := range []Mode{ModeExploit, ModeInjection} {
				refs = append(refs, CellRef{Version: v, UseCase: specs[i].Name, Mode: mode})
			}
		}
	}
	return refs
}

// RunCellRefs executes an explicit cell list, the delta-rerun entry
// point behind `repro -ledger -resume`. Refs run in the given order
// through the same dispatch and settle path as a full matrix, so a
// subset rerun is deterministic exactly like the campaign it patches —
// callers must pass refs in dispatch order (version-major, registry
// spec order, exploit before injection) for the settled artifacts to
// merge byte-identically (MatrixRefs yields that order). An unknown
// version or use case is an error before anything is announced.
func (r *Runner) RunCellRefs(ctx context.Context, refs []CellRef) ([]MatrixEntry, error) {
	p := campaignPlan()
	cells := make([]cell, len(refs))
	for i, ref := range refs {
		c, err := p.resolve(ref)
		if err != nil {
			return nil, fmt.Errorf("campaign: cell ref %s/%s/%s: %w", ref.Version, ref.UseCase, ref.Mode, err)
		}
		cells[i] = c
	}
	return r.runEntries(ctx, cells)
}

// runEntries runs matrix cells and turns them into entries in cell
// order: the one multi-cell path, behind RunCellRefs. Failure semantics are uniform across pool sizes: every
// cell runs to completion and, unless ContinueOnError is set, the first
// failure in cell order is the campaign's error, so serial and parallel
// runs of a partially failing batch agree on it. With ContinueOnError
// every failed entry carries its record in Err instead.
func (r *Runner) runEntries(ctx context.Context, cells []cell) ([]MatrixEntry, error) {
	outs := r.runCells(ctx, cells)
	entries := make([]MatrixEntry, len(cells))
	for i, c := range cells {
		o := outs[i]
		if o.err != nil && !r.ContinueOnError {
			return nil, fmt.Errorf("campaign: matrix %s: %w", c, o.err.surfaced())
		}
		entries[i] = MatrixEntry{Version: c.version.Name, UseCase: c.spec.Name, Mode: c.mode, Result: o.res, Err: o.err}
	}
	return entries, nil
}
