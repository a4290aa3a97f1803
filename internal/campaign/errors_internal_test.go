package campaign

import (
	"context"
	"strings"
	"testing"

	"repro/internal/exploits"
	"repro/internal/hv"
	"repro/internal/telemetry"
)

// The failure-semantics contract of runEntries: serial (Workers: 1) and
// parallel pools agree exactly on a partially failing batch — every
// valid cell still runs to completion, and the first error in cell
// order is the one reported. The serial path used to stop at the first
// failing cell, which made a -workers 1 rerun of a failing campaign
// see strictly less of the batch than the parallel run it was meant to
// debug.

// panicking is a spec whose scenario panics: a failing cell that
// resolution cannot reject up front, unlike an unknown use-case name.
func panicking(name string) *exploits.Spec {
	return &exploits.Spec{Name: name, Run: func(*exploits.Env) *exploits.Outcome { panic(name + " panicked") }}
}

// batchWithFailures puts panicking cells in the middle and at the end,
// with valid cells after the first failure.
func batchWithFailures(t *testing.T) []cell {
	t.Helper()
	p := campaignPlan()
	spec := func(name string) *exploits.Spec {
		s, err := p.spec(name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	v := hv.Version46()
	return []cell{
		{v, spec("XSA-182-test"), ModeExploit},
		{v, panicking("first-panic"), ModeExploit},
		{v, spec("XSA-182-test"), ModeInjection},
		{v, panicking("second-panic"), ModeInjection},
		{v, spec("XSA-148-priv"), ModeExploit},
	}
}

func runBatch(t *testing.T, workers int) (string, uint64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	r := &Runner{Workers: workers, Telemetry: reg}
	_, err := r.runEntries(context.Background(), batchWithFailures(t))
	if err == nil {
		t.Fatalf("workers=%d: batch with bogus cells succeeded", workers)
	}
	var completed uint64
	for _, h := range reg.Histograms() {
		if h.Name == telemetry.CellWallHistogram {
			completed = h.Count
		}
	}
	return err.Error(), completed
}

func TestSerialAndParallelFailureSemanticsAgree(t *testing.T) {
	serialErr, serialDone := runBatch(t, 1)
	if !strings.Contains(serialErr, "4.6/first-panic/exploit") {
		t.Errorf("serial error %q does not name the first failing cell in cell order", serialErr)
	}
	// All three valid cells completed despite the failure at index 1.
	if serialDone != 3 {
		t.Errorf("serial path completed %d cells, want 3 (must not stop at first failure)", serialDone)
	}
	for _, w := range []int{2, 4} {
		parallelErr, parallelDone := runBatch(t, w)
		if parallelErr != serialErr {
			t.Errorf("workers=%d error %q != serial error %q", w, parallelErr, serialErr)
		}
		if parallelDone != serialDone {
			t.Errorf("workers=%d completed %d cells, serial completed %d", w, parallelDone, serialDone)
		}
	}
}
