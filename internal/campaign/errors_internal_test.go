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
		{version: v, spec: spec("XSA-182-test"), mode: ModeExploit},
		{version: v, spec: panicking("first-panic"), mode: ModeExploit},
		{version: v, spec: spec("XSA-182-test"), mode: ModeInjection},
		{version: v, spec: panicking("second-panic"), mode: ModeInjection},
		{version: v, spec: spec("XSA-148-priv"), mode: ModeExploit},
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

// TestSanitizeStack holds panic records to the frames from the panic
// site down to the cell body, with module-relative source paths: the
// same fault gives the same record on an original worker, on a
// replacement worker and from any checkout.
func TestSanitizeStack(t *testing.T) {
	if moduleRoot == "" {
		t.Fatal("moduleRoot is empty: the runner's source path does not end in internal/campaign/runner.go")
	}
	root := moduleRoot
	top := "goroutine 42 [running]:\n" +
		"runtime/debug.Stack()\n" +
		"\t/usr/local/go/src/runtime/debug/stack.go:26 +0x5e\n" +
		"repro/internal/campaign.runBody.func1()\n" +
		"\t" + root + "internal/campaign/runner.go:480 +0x8d\n" +
		"panic({0x5a1b20?, 0xc0001a2b30?})\n" +
		"\t/usr/local/go/src/runtime/panic.go:785 +0x132\n"
	body := "repro/internal/hv.(*Domain).Hypercall(0xc000123400, 0x24, {0x5b2c40, 0xc0002f1e00})\n" +
		"\t" + root + "internal/hv/hypercall.go:158 +0x2a5\n" +
		"repro/internal/campaign.runScenario({{{0x6a, 0x3}, 0x1}, ...}, ...)\n" +
		"\t" + root + "internal/campaign/runner.go:423 +0x1c5\n"
	want := "repro/internal/hv.(*Domain).Hypercall(0x?, 0x?, {0x?, 0x?})\n" +
		"\tinternal/hv/hypercall.go:158 +0x?\n" +
		"repro/internal/campaign.runScenario({{{0x?, 0x?}, 0x?}, ...}, ...)\n" +
		"\tinternal/campaign/runner.go:423 +0x?"
	for _, tc := range []struct {
		name, stack, want string
	}{{
		name: "original worker",
		stack: top + body +
			"repro/internal/campaign.runBody({...}, ...)\n" +
			"\t" + root + "internal/campaign/runner.go:488 +0x9a\n" +
			"repro/internal/campaign.(*worker).run(0xc000010030, 0x4)\n" +
			"\t" + root + "internal/campaign/runner.go:700 +0x3f5\n" +
			"repro/internal/campaign.(*batch).work(0xc0000b4000, 0x0, 0x0)\n" +
			"\t" + root + "internal/campaign/runner.go:640 +0xa5\n" +
			"created by repro/internal/campaign.(*Runner).runCells in goroutine 7\n" +
			"\t" + root + "internal/campaign/runner.go:610 +0x2d1\n",
		want: want,
	}, {
		name: "replacement worker",
		stack: strings.Replace(top, "goroutine 42", "goroutine 311", 1) + body +
			"repro/internal/campaign.runBody({...}, ...)\n" +
			"\t" + root + "internal/campaign/runner.go:488 +0x9a\n" +
			"repro/internal/campaign.(*worker).run(0xc0004e6000, 0x9)\n" +
			"\t" + root + "internal/campaign/runner.go:700 +0x3f5\n" +
			"repro/internal/campaign.(*batch).work(0xc0000b4000, 0x1, 0xffffffffffffffff)\n" +
			"\t" + root + "internal/campaign/runner.go:640 +0xa5\n" +
			"created by repro/internal/campaign.(*batch).abandon in goroutine 298\n" +
			"\t" + root + "internal/campaign/runner.go:830 +0x1f0\n",
		want: want,
	}, {
		name: "no panic frame or cell body",
		stack: "goroutine 9 [running]:\n" +
			"repro/internal/hv.(*Domain).Hypercall(0xc000123400)\n" +
			"\t" + root + "internal/hv/hypercall.go:158 +0x2a5\n" +
			"strings.Join({0xc0000a0000, 0x2, 0x2}, {0x0, 0x0})\n" +
			"\t/usr/local/go/src/strings/strings.go:429 +0x4f\n" +
			"created by repro/internal/campaign.(*Runner).runCells in goroutine 7\n" +
			"\t" + root + "internal/campaign/runner.go:610 +0x2d1\n",
		want: "repro/internal/hv.(*Domain).Hypercall(0x?)\n" +
			"\tinternal/hv/hypercall.go:158 +0x?\n" +
			"strings.Join({0x?, 0x?, 0x?}, {0x?, 0x?})\n" +
			"\t/usr/local/go/src/strings/strings.go:429 +0x?",
	}} {
		if got := sanitizeStack([]byte(tc.stack)); got != tc.want {
			t.Errorf("%s:\ngot\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}
