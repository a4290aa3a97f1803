package campaign

// Fault-plane interaction with the snapshot cache, from inside the
// package so the pool and cache internals are checkable: faults armed
// on a forked cell count from the fork point, fire in the fork only and
// never corrupt the shared snapshot, and poisoned forks are abandoned
// to the collector instead of returning to the pool.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/hv"
)

// poolVersion returns a version profile with a private name, so each
// test gets its own snapshot-cache entry and pool.
func poolVersion(t *testing.T) hv.Version {
	v := hv.Version46()
	v.Name = "4.6#" + t.Name()
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
	if got := s.ms.PoolSize(); got != 0 {
		t.Fatalf("fresh snapshot pool size %d, want 0", got)
	}
	if _, err := runPoolCell(nil, v, "XSA-182-test"); err != nil {
		t.Fatal(err)
	}
	if got := s.ms.PoolSize(); got != 1 {
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
	if got := s.ms.PoolSize(); got != 1 {
		t.Fatalf("pool size %d after priming, want 1", got)
	}
	plan := faults.NewPlan(0, 0).ArmCell(id, faults.SiteHypercallPanic, 1)
	r := &Runner{Workers: 1, Faults: plan}
	_, err := r.RunContext(context.Background(), v, "XSA-182-test", ModeExploit)
	var ce *CellError
	if !errors.As(err, &ce) || ce.Class != FailPanic {
		t.Fatalf("err = %v, want a FailPanic record", err)
	}
	if got := s.ms.PoolSize(); got != 0 {
		t.Errorf("pool size %d after a panicked cell, want 0 (poisoned fork abandoned)", got)
	}
	// The snapshot itself is uncorrupted: the next clean run succeeds
	// and recycles a fresh fork.
	if _, err := runPoolCell(nil, v, "XSA-182-test"); err != nil {
		t.Fatalf("clean run after panicked fork: %v", err)
	}
	if got := s.ms.PoolSize(); got != 1 {
		t.Errorf("pool size %d after recovery run, want 1", got)
	}
}

func TestWedgedForkIsAbandonedNotPooled(t *testing.T) {
	v := poolVersion(t)
	s := snapshotFor(campaignPlan(), v, ModeExploit)
	if s.err != nil {
		t.Fatal(s.err)
	}
	id := v.Name + "/XSA-182-test/exploit"
	plan := faults.NewPlan(0, 0).ArmCell(id, faults.SiteWedge, 1)
	r := &Runner{Workers: 1, CellTimeout: 50 * time.Millisecond, Faults: plan}
	_, err := r.RunContext(context.Background(), v, "XSA-182-test", ModeExploit)
	var ce *CellError
	if !errors.As(err, &ce) || ce.Class != FailHang {
		t.Fatalf("err = %v, want a FailHang record", err)
	}
	plan.ReleaseAll()
	// Give the released goroutine a moment to drain; it must not
	// recycle its fork even after release (its runScenario unwound
	// through the wedged hypercall's error path).
	time.Sleep(50 * time.Millisecond)
	if got := s.ms.PoolSize(); got != 0 {
		t.Errorf("pool size %d after a wedged cell, want 0", got)
	}
	if _, err := runPoolCell(nil, v, "XSA-182-test"); err != nil {
		t.Fatalf("clean run after wedged fork: %v", err)
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
