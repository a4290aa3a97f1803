package campaign_test

// Drop accounting at the campaign level: sink-write faults are a
// per-cell deterministic function of the fault plan, so a cell's
// DroppedEvents and telemetry.sink_errors readings are identical at
// any worker count — losing an event to a faulted sink never depends
// on scheduling.

import (
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// sinkFaultedCells pins explicit SiteSinkWrite rules (density 0 keeps
// every other cell clean) so exactly these cells drop exactly one
// event each, regardless of where their nth write falls.
var sinkFaultedCells = []string{
	"4.6/XSA-148-priv/exploit",
	"4.8/XSA-182-test/injection",
	"4.13/XSA-212-priv/exploit",
}

func matrixDropStats(t *testing.T, workers int) map[string][2]uint64 {
	t.Helper()
	plan := faults.NewPlan(0, 0)
	for i, cell := range sinkFaultedCells {
		// Spread the faulted write across the cell's own events, which
		// the fault plane counts from the fork point: early, mid-scenario
		// and late (the three cells emit 21, 11 and 14 events of their
		// own, so stay inside that).
		plan.ArmCell(cell, faults.SiteSinkWrite, uint64(2+4*i))
	}
	defer plan.ReleaseAll()
	r := &campaign.Runner{Workers: workers, Telemetry: telemetry.NewRegistry(), Faults: plan}
	entries, err := r.RunMatrixContext(context.Background())
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	out := make(map[string][2]uint64, len(entries))
	for _, e := range entries {
		p := e.Result.Profile
		if p == nil {
			t.Fatalf("workers=%d: %s/%s/%s has no profile", workers, e.Version, e.UseCase, e.Mode)
		}
		var sinkErrs uint64
		for _, c := range p.Counters {
			if c.Name == "telemetry.sink_errors" {
				sinkErrs = c.Value
			}
		}
		out[p.Cell] = [2]uint64{p.DroppedEvents, sinkErrs}
	}
	return out
}

func TestDropAccountingDeterministicAcrossWorkerCounts(t *testing.T) {
	base := matrixDropStats(t, 1)
	if len(base) != 102 {
		t.Fatalf("matrix produced %d distinct cells, want 102", len(base))
	}
	want := make(map[string]bool, len(sinkFaultedCells))
	for _, cell := range sinkFaultedCells {
		want[cell] = true
	}
	for cell, stats := range base {
		if want[cell] {
			if stats != [2]uint64{1, 1} {
				t.Errorf("workers=1: %s dropped/sink_errors = %d/%d, want 1/1", cell, stats[0], stats[1])
			}
		} else if stats != [2]uint64{0, 0} {
			t.Errorf("workers=1: unfaulted %s dropped/sink_errors = %d/%d, want 0/0", cell, stats[0], stats[1])
		}
	}
	for _, w := range []int{4, 8} {
		got := matrixDropStats(t, w)
		for cell, stats := range base {
			if got[cell] != stats {
				t.Errorf("workers=%d: %s dropped/sink_errors = %v, want %v (workers=1)", w, cell, got[cell], stats)
			}
		}
	}
}
