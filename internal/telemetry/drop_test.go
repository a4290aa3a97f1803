package telemetry

// The drop-accounting contract: Emitted counts only events that landed
// in the ring, Dropped is the sum of ring overwrites and sink-write
// fault drops, and the retained events' Seq stays gapless through both
// — a dropped write is never sequenced, so trace consumers can treat a
// Seq gap as impossible rather than ambiguous.

import (
	"fmt"
	"testing"

	"repro/internal/coverage"
	"repro/internal/faults"
)

// TestSinkFaultDropAccounting pins the fault path: the faulted write is
// dropped before sequencing, counted by Dropped and the
// telemetry.sink_errors counter, and invisible to Emitted.
func TestSinkFaultDropAccounting(t *testing.T) {
	r := NewRecorder(8)
	r.AttachFaults(faults.NewInjector().Arm(faults.SiteSinkWrite, 3))
	for i := 0; i < 6; i++ {
		r.ScenarioStep("uc", fmt.Sprintf("line %d", i))
	}
	if got := r.Emitted(); got != 5 {
		t.Errorf("Emitted = %d, want 5 (the faulted write never lands)", got)
	}
	if got := r.Dropped(); got != 1 {
		t.Errorf("Dropped = %d, want 1", got)
	}
	if got := r.Counter("telemetry.sink_errors"); got != 1 {
		t.Errorf("telemetry.sink_errors = %d, want 1", got)
	}
	if got := r.Counter("scenario.steps"); got != 6 {
		t.Errorf("scenario.steps = %d, want 6 (counters observe the site, not the ring)", got)
	}
	events := r.Events()
	if len(events) != 5 {
		t.Fatalf("retained %d events, want 5", len(events))
	}
	wantDetails := []string{"line 0", "line 1", "line 3", "line 4", "line 5"}
	for i, e := range events {
		if e.Seq != uint64(i) {
			t.Errorf("event %d: Seq = %d, want %d (gapless across the drop)", i, e.Seq, i)
		}
		if e.Detail != wantDetails[i] {
			t.Errorf("event %d: Detail = %q, want %q", i, e.Detail, wantDetails[i])
		}
	}
}

// TestSinkFaultPlusRingWrap checks the two loss mechanisms compose:
// Dropped is overwrites plus sink drops, and Emitted still counts every
// landed event including the overwritten ones.
func TestSinkFaultPlusRingWrap(t *testing.T) {
	r := NewRecorder(4)
	r.AttachFaults(faults.NewInjector().Arm(faults.SiteSinkWrite, 2))
	for i := 0; i < 10; i++ {
		r.ScenarioStep("uc", fmt.Sprintf("line %d", i))
	}
	// 10 writes, 1 faulted: 9 landed, the 4-slot ring retains the last
	// 4, so 5 were overwritten. Dropped = 5 overwrites + 1 sink drop.
	if got := r.Emitted(); got != 9 {
		t.Errorf("Emitted = %d, want 9", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6 (5 overwrites + 1 sink drop)", got)
	}
	events := r.Events()
	if len(events) != 4 {
		t.Fatalf("retained %d events, want 4", len(events))
	}
	for i, e := range events {
		if want := uint64(5 + i); e.Seq != want {
			t.Errorf("event %d: Seq = %d, want %d (oldest-first, gapless)", i, e.Seq, want)
		}
	}
	if got := r.Counter("scenario.steps"); got != 10 {
		t.Errorf("scenario.steps = %d, want 10", got)
	}
}

// TestCoverageUnperturbedBySinkFaults pins the coverage determinism
// invariant: coverage observes the instrumented site before the ring
// write, so an event lost to a sink fault still contributes its edge.
func TestCoverageUnperturbedBySinkFaults(t *testing.T) {
	r := NewRecorder(4)
	r.AttachCoverage(coverage.NewMap())
	r.AttachFaults(faults.NewInjector().Arm(faults.SiteSinkWrite, 1))
	r.HypercallExit(1, 1, NewOp("hypercall", "mmu_update"), nil)
	if got := r.Emitted(); got != 0 {
		t.Errorf("Emitted = %d, want 0 (write faulted)", got)
	}
	if got := r.Dropped(); got != 1 {
		t.Errorf("Dropped = %d, want 1", got)
	}
	cov := r.Coverage()
	if got := cov.Len(); got != 1 {
		t.Fatalf("coverage edges = %d, want 1 (edge recorded despite the drop)", got)
	}
	if got := coverage.Canonical(cov.Edges()); got != "hypercall/mmu_update:ok x1\n" {
		t.Errorf("canonical = %q, want the mmu_update:ok edge", got)
	}
}
