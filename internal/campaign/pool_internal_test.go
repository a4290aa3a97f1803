package campaign

// The snapshot pool under the watchdog, from inside the package so the
// runner's outcomes and the pool are checkable. pool_test.go keeps the
// pool tests that render through internal/report, which imports this
// package.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestWatchdogAbandonedCellLeavesPoolAlone: a cell the watchdog settled
// as a hang is written off with its environment. Released from its
// wedge, it completes its scenario cleanly, and must neither return its
// fork to the snapshot pool nor overwrite the hang record it was
// settled with; the snapshot stays usable.
func TestWatchdogAbandonedCellLeavesPoolAlone(t *testing.T) {
	v := poolVersion(t)
	s := snapshotFor(campaignPlan(), v, ModeExploit)
	if s.err != nil {
		t.Fatal(s.err)
	}
	spec, err := campaignPlan().spec("XSA-182-test")
	if err != nil {
		t.Fatal(err)
	}
	c := cell{version: v, spec: spec, mode: ModeExploit}
	base := runtime.NumGoroutine()
	pooled := s.poolSize()
	plan := faults.NewPlan(0, 0).ArmCell(c.String(), faults.SiteWedge, 1)
	r := &Runner{Workers: 1, CellTimeout: 50 * time.Millisecond, Faults: plan}
	outs := r.runCells(context.Background(), []cell{c})
	if outs[0].err == nil || outs[0].err.Class != FailHang {
		plan.ReleaseAll()
		t.Fatalf("wedged cell settled as %+v, want a hang", outs[0].err)
	}
	// Released, the cell finishes its scenario and its worker exits.
	plan.ReleaseAll()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the released cell's worker is still running: %d goroutines, baseline %d", runtime.NumGoroutine(), base)
		}
	}
	if got := s.poolSize(); got != pooled {
		t.Errorf("pool size %d after the abandoned cell finished, want %d", got, pooled)
	}
	if o := outs[0]; o.res != nil || o.err == nil || o.err.Class != FailHang {
		t.Errorf("the abandoned cell's entry changed after it finished: res %v, err %+v", o.res, o.err)
	}
	// The snapshot is intact: the next clean run forks it and succeeds.
	if _, err := runPoolCell(nil, v, "XSA-182-test"); err != nil {
		t.Fatalf("clean run after the abandoned cell: %v", err)
	}
}
