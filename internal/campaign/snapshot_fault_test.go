package campaign

// Fault-plane interaction with the snapshot cache, from inside the
// package so the pool and cache internals are checkable: faults armed
// on a forked cell count from the fork point, fire in the fork only and
// never corrupt the shared snapshot, and poisoned forks are abandoned
// to the collector instead of returning to the pool.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/coverage"
	"repro/internal/faults"
	"repro/internal/hv"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/vnet"
)

// poolRuns numbers poolVersion's profiles, so a test run again in the
// same process (go test -count=2) gets a new cache entry too.
var poolRuns atomic.Int64

// poolVersion returns a version profile with a private name, so each
// test run gets its own snapshot-cache entry and pool.
func poolVersion(t *testing.T) hv.Version {
	v := hv.Version46()
	v.Name = fmt.Sprintf("4.6#%s#%d", t.Name(), poolRuns.Add(1))
	return v
}

// runPoolCell runs one cell through a serial Runner, armed with plan
// (nil for a clean run).
func runPoolCell(plan *faults.Plan, v hv.Version, useCase string) (*RunResult, error) {
	return (&Runner{Workers: 1, Faults: plan}).RunContext(context.Background(), v, useCase, ModeExploit)
}

func TestCleanForkReturnsToPool(t *testing.T) {
	v := poolVersion(t)
	s := snapshotFor(campaignPlan(), v, ModeExploit)
	if s.err != nil {
		t.Fatal(s.err)
	}
	if got := s.poolSize(); got != 0 {
		t.Fatalf("fresh snapshot pool size %d, want 0", got)
	}
	if _, err := runPoolCell(nil, v, "XSA-182-test"); err != nil {
		t.Fatal(err)
	}
	if got := s.poolSize(); got != 1 {
		t.Errorf("pool size %d after a clean cell, want 1 (fork recycled)", got)
	}
}

func TestPanickedForkIsAbandonedNotPooled(t *testing.T) {
	v := poolVersion(t)
	s := snapshotFor(campaignPlan(), v, ModeExploit)
	if s.err != nil {
		t.Fatal(s.err)
	}
	id := v.Name + "/XSA-182-test/exploit"
	// Prime the pool with one clean run, so the panicking cell provably
	// consumes the pooled fork and fails to return it.
	if _, err := runPoolCell(nil, v, "XSA-182-test"); err != nil {
		t.Fatal(err)
	}
	if got := s.poolSize(); got != 1 {
		t.Fatalf("pool size %d after priming, want 1", got)
	}
	plan := faults.NewPlan(0, 0).ArmCell(id, faults.SiteHypercallPanic, 1)
	r := &Runner{Workers: 1, Faults: plan}
	_, err := r.RunContext(context.Background(), v, "XSA-182-test", ModeExploit)
	var ce *CellError
	if !errors.As(err, &ce) || ce.Class != FailPanic {
		t.Fatalf("err = %v, want a FailPanic record", err)
	}
	if got := s.poolSize(); got != 0 {
		t.Errorf("pool size %d after a panicked cell, want 0 (poisoned fork abandoned)", got)
	}
	// The snapshot itself is uncorrupted: the next clean run succeeds
	// and recycles a fresh fork.
	if _, err := runPoolCell(nil, v, "XSA-182-test"); err != nil {
		t.Fatalf("clean run after panicked fork: %v", err)
	}
	if got := s.poolSize(); got != 1 {
		t.Errorf("pool size %d after recovery run, want 1", got)
	}
}

// TestPostBootAllocFaultFiresInForkOnly: a SiteAlloc rule armed at the
// cell's first own allocation fires inside the forked cell's attack
// phase (the XSA-212 exploit primitive allocates via
// populate_physmap/exchange) and the shared snapshot stays pristine for
// the next cell.
func TestPostBootAllocFaultFiresInForkOnly(t *testing.T) {
	v := poolVersion(t)
	s := snapshotFor(campaignPlan(), v, ModeExploit)
	if s.err != nil {
		t.Fatal(s.err)
	}
	plan := faults.NewPlan(0, 0).ArmCell(v.Name+"/XSA-212-crash/exploit", faults.SiteAlloc, 1)
	res, err := runPoolCell(plan, v, "XSA-212-crash")
	if err != nil {
		t.Fatalf("post-boot fault should land in the outcome, not fail the cell: %v", err)
	}
	// The hv layer collapses causes into its ABI errors (%v, not %w), so
	// match the injected-fault marker in the message.
	if res.Outcome.Err == nil || !strings.Contains(res.Outcome.Err.Error(), "faults: injected fault") {
		t.Fatalf("outcome error = %v, want an injected allocation failure", res.Outcome.Err)
	}
	// The same cell with no faults reproduces the pristine result.
	clean, err := runPoolCell(nil, v, "XSA-212-crash")
	if err != nil {
		t.Fatalf("clean run after faulted fork: %v", err)
	}
	if clean.Outcome.Err != nil {
		t.Errorf("clean run inherited an error from the faulted fork: %v", clean.Outcome.Err)
	}
	if !clean.Verdict.ErroneousState {
		t.Error("clean exploit run did not reach its erroneous state; the snapshot was corrupted")
	}
}

// TestForkVsFreshAllocFault: the fault plane starts at the fork point
// on both boot paths, so a SiteAlloc rule armed at the cell's first own
// allocation fails the same allocation whether the cell forks from the
// sealed boot or boots fresh, and the two runs settle identically:
// outcome error, verdict and console.
func TestForkVsFreshAllocFault(t *testing.T) {
	v := poolVersion(t)
	id := v.Name + "/XSA-212-crash/exploit"
	run := func(snapshots bool) *RunResult {
		t.Helper()
		EnableSnapshots(snapshots)
		defer EnableSnapshots(true)
		res, err := runPoolCell(faults.NewPlan(0, 0).ArmCell(id, faults.SiteAlloc, 1), v, "XSA-212-crash")
		if err != nil {
			t.Fatalf("snapshots=%v: an alloc fault should land in the outcome, not fail the cell: %v", snapshots, err)
		}
		if res.Outcome.Err == nil || !strings.Contains(res.Outcome.Err.Error(), "faults: injected fault") {
			t.Fatalf("snapshots=%v: outcome error = %v, want an injected allocation failure", snapshots, res.Outcome.Err)
		}
		return res
	}
	fork, fresh := run(true), run(false)
	if a, b := fork.Outcome.Err.Error(), fresh.Outcome.Err.Error(); a != b {
		t.Errorf("outcome error differs between paths\nfork:  %s\nfresh: %s", a, b)
	}
	if !reflect.DeepEqual(fork.Verdict, fresh.Verdict) {
		t.Errorf("verdict differs between paths\nfork:  %+v\nfresh: %+v", fork.Verdict, fresh.Verdict)
	}
	if a, b := strings.Join(fork.Console, "\n"), strings.Join(fresh.Console, "\n"); a != b {
		t.Errorf("console differs between paths\nfork:\n%s\nfresh:\n%s", a, b)
	}
}

// TestForkHangFiresInForkOnly: a forced hang on a forked cell leaves
// the hang state in that fork's hypervisor; a sibling fork from the
// same snapshot is healthy.
func TestForkHangFiresInForkOnly(t *testing.T) {
	v := poolVersion(t)
	s := snapshotFor(campaignPlan(), v, ModeExploit)
	if s.err != nil {
		t.Fatal(s.err)
	}
	e1, _, err := s.forkEnvironment(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	e1.HV.AttachFaults(faults.NewInjector().Arm(faults.SiteHang, 1))
	env, err := e1.ScenarioEnv(ModeExploit)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := campaignPlan().spec("XSA-182-test")
	if err != nil {
		t.Fatal(err)
	}
	if out := spec.Run(env); out == nil {
		t.Fatal("scenario produced no outcome")
	}
	if !e1.HV.Hung() {
		t.Fatal("armed hang fault never fired in the fork")
	}
	e2, recycle, err := s.forkEnvironment(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e2.HV.Hung() {
		t.Error("hang state leaked from one fork into its sibling")
	}
	if strings.Contains(strings.Join(e2.HV.Console(), "\n"), "injected hang") {
		t.Error("fork 1's console output leaked into fork 2")
	}
	recycle()
}

// TestFailedForkFailsTheCell: a fork that fails after the boot prefix
// went into the cell's sinks is the cell's error, and the cell does not
// boot a second time into the same sinks. This snapshot's network has no
// listener, so its forks fail on the listener lookup, after the restore.
func TestFailedForkFailsTheCell(t *testing.T) {
	v := poolVersion(t)
	s := snapshotFor(campaignPlan(), v, ModeExploit)
	if s.err != nil {
		t.Fatal(s.err)
	}
	s.net = vnet.New()

	rec := telemetry.NewRecorder(0)
	e, recycle, err := cellEnvironment(campaignPlan(), cell{version: v, mode: ModeExploit}, rec, nil, nil)
	if !errors.Is(err, vnet.ErrRefused) || e != nil || recycle != nil {
		t.Fatalf("cellEnvironment = %v, recycle set %v, err %v; want only vnet.ErrRefused", e, recycle != nil, err)
	}
	if got, want := rec.Emitted(), uint64(len(s.boot.events)); got != want {
		t.Errorf("recorder emitted %d events, want the boot's %d once", got, want)
	}
	for _, c := range s.boot.counters {
		if got := rec.Counter(c.Name); got != c.Value {
			t.Errorf("counter %s = %d, want the boot's %d once", c.Name, got, c.Value)
		}
	}

	// A FailError cell surfaces its bare cause; the other classes
	// surface as their *CellError records.
	_, err = runPoolCell(nil, v, "XSA-182-test")
	var ce *CellError
	if !errors.Is(err, vnet.ErrRefused) || errors.As(err, &ce) {
		t.Errorf("cell error = %v, want the %s failure vnet.ErrRefused", err, FailError)
	}
}

// TestReusedEnvironmentCarriesNoSinks: a cell that reuses an environment
// after a cell that had a recorder with coverage, a span tree and a
// fault plane attached sees none of them. The second cell runs the same
// scenario with no sinks: the first cell's recorder, tree and injector
// must not count a single event, span or consult of it.
func TestReusedEnvironmentCarriesNoSinks(t *testing.T) {
	v := poolVersion(t)
	s := snapshotFor(campaignPlan(), v, ModeInjection)
	if s.err != nil {
		t.Fatal(s.err)
	}
	spec, err := campaignPlan().spec("XSA-387-leak")
	if err != nil {
		t.Fatal(err)
	}
	c := cell{version: v, mode: ModeInjection}
	run := func(e *Environment) {
		t.Helper()
		env, err := e.ScenarioEnv(ModeInjection)
		if err != nil {
			t.Fatal(err)
		}
		if out := spec.Run(env); out.Err != nil {
			t.Fatalf("scenario: %v", out.Err)
		}
	}

	rec := telemetry.NewRecorder(0)
	rec.AttachCoverage(coverage.NewMap())
	tree := span.NewTree("first", rec.Emitted)
	inj := faults.NewInjector()
	e1, recycle, err := cellEnvironment(campaignPlan(), c, rec, inj, tree)
	if err != nil {
		t.Fatal(err)
	}
	run(e1)
	recycle()
	emitted, spans := rec.Emitted(), len(tree.Spans())
	edges := rec.Coverage().Edges()
	allocs, calls := inj.Hits(faults.SiteAlloc), inj.Hits(faults.SiteHypercallPanic)
	if allocs == 0 || calls == 0 {
		t.Fatalf("first cell consulted its fault plane %d/%d times; the check below would prove nothing", allocs, calls)
	}

	e2, recycle, err := cellEnvironment(campaignPlan(), c, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e2 != e1 {
		t.Fatal("second cell did not reuse the pooled environment")
	}
	if e2.HV.Telemetry() != nil || e2.HV.Spans() != nil {
		t.Error("reused environment still carries the first cell's recorder or span tree")
	}
	run(e2)
	recycle()
	if rec.Emitted() != emitted || len(tree.Spans()) != spans {
		t.Errorf("first cell's sinks grew during the second cell: events %d→%d, spans %d→%d",
			emitted, rec.Emitted(), spans, len(tree.Spans()))
	}
	if got := rec.Coverage().Edges(); !reflect.DeepEqual(got, edges) {
		t.Error("first cell's coverage map counted edges of the second cell")
	}
	if inj.Hits(faults.SiteAlloc) != allocs || inj.Hits(faults.SiteHypercallPanic) != calls {
		t.Errorf("first cell's fault plane was consulted during the second cell: alloc %d→%d, dispatch %d→%d",
			allocs, inj.Hits(faults.SiteAlloc), calls, inj.Hits(faults.SiteHypercallPanic))
	}
}
