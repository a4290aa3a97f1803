package campaign_test

// The causal span layer's campaign-level contract: span trees are
// measured in virtual time, so the forest's canonical structure is
// byte-identical at any worker count and pinned here as a golden;
// installing the collector changes no rendered artifact; and every tree
// the engine salvages from a chaos-faulted cell still satisfies the
// closed-exactly-once invariant.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/report"
	"repro/internal/span"
)

// matrixForest runs the full matrix with span collection at the given
// pool size and returns the snapshot.
func matrixForest(t *testing.T, workers int, opts func(*campaign.Runner)) *span.Forest {
	t.Helper()
	r := &campaign.Runner{Workers: workers, Spans: span.NewCollector()}
	if opts != nil {
		opts(r)
	}
	if _, err := r.RunMatrixContext(context.Background()); err != nil {
		t.Fatalf("workers=%d RunMatrixContext: %v", workers, err)
	}
	return r.Spans.Forest()
}

// matrixForestDigest is the pinned SHA-256 of the default matrix's
// canonical span forest. It moves only when the simulated stack's
// event flow changes — which is exactly the kind of change that must
// be reviewed, not absorbed.
const matrixForestDigest = "8090f4a691f014a462ddfb7d323ef7dd694ed451057f7ccb935aff6c6163ad63"

// The golden canonical subtree of one injection cell, pinned in full:
// boot's page-table allocations, the three-step arbitrary_access
// injection, and the assess audit, all in event-count time.
const goldenInjectionCell = `  4.6/XSA-148-priv/injection
    cell "4.6/XSA-148-priv/injection" [0,283]
      phase "boot" [0,259]
        mm_op "alloc_range[16]" [0,0]
        mm_op "alloc_range[32]" [0,0]
        mm_op "alloc_range[64]" [3,3]
        mm_op "alloc_range[64]" [67,67]
        mm_op "alloc_range[64]" [131,131]
        mm_op "alloc_range[64]" [195,195]
      phase "inject" [259,281]
        hypercall "arbitrary_access" [262,265]
        hypercall "arbitrary_access" [266,269]
        hypercall "arbitrary_access" [271,274]
      phase "assess" [281,283]
        audit "audit:XSA-148-priv" [281,283]
`

func TestMatrixSpanForestDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := matrixForest(t, 1, nil)
	if err := serial.Check(); err != nil {
		t.Fatalf("serial forest invariants: %v", err)
	}
	canon := serial.Canonical()
	for _, w := range workerCounts[1:] {
		f := matrixForest(t, w, nil)
		if err := f.Check(); err != nil {
			t.Fatalf("workers=%d forest invariants: %v", w, err)
		}
		if got := f.Canonical(); got != canon {
			t.Errorf("workers=%d canonical forest differs from serial", w)
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(canon))); got != matrixForestDigest {
		t.Errorf("canonical forest digest = %s, want pinned %s\n(structure changed; review the canonical diff and re-pin)\n%s",
			got, matrixForestDigest, canon)
	}
	if !strings.Contains(canon, goldenInjectionCell) {
		t.Errorf("canonical forest lost the pinned 4.6/XSA-148-priv/injection subtree:\n%s", canon)
	}
	if cells := serial.Cells(); len(cells) != 102 {
		t.Errorf("forest has %d cells, want the full 102-cell matrix", len(cells))
	}
}

// Installing the span collector must not perturb the campaign's
// rendered artifact — spans observe the run, they don't participate.
func TestMatrixOutputUnchangedBySpans(t *testing.T) {
	plain, err := (&campaign.Runner{Workers: 4}).RunMatrixContext(context.Background())
	if err != nil {
		t.Fatalf("plain RunMatrixContext: %v", err)
	}
	r := &campaign.Runner{Workers: 4, Spans: span.NewCollector()}
	spanned, err := r.RunMatrixContext(context.Background())
	if err != nil {
		t.Fatalf("spanned RunMatrixContext: %v", err)
	}
	if got, want := report.Matrix(spanned), report.Matrix(plain); got != want {
		t.Errorf("matrix report changed when span collection was enabled:\n--- plain ---\n%s\n--- spanned ---\n%s", want, got)
	}
}

// The single-cell entry point also collects: one one-cell batch, one
// tree.
func TestRunSingleCellCollectsSpans(t *testing.T) {
	r := &campaign.Runner{Workers: 1, Spans: span.NewCollector()}
	if _, err := r.RunContext(context.Background(), campaign.Table3Versions()[0], "XSA-148-priv", campaign.ModeInjection); err != nil {
		t.Fatalf("Run: %v", err)
	}
	f := r.Spans.Forest()
	if err := f.Check(); err != nil {
		t.Fatalf("forest Check: %v", err)
	}
	cells := f.Cells()
	if len(cells) != 1 || cells[0].Tree == nil {
		t.Fatalf("got %d settled cells (tree present: %v), want 1 with a tree", len(cells), len(cells) == 1 && cells[0].Tree != nil)
	}
}

// Satellite: the span invariants hold under chaos. Every tree the
// engine salvages — including from panicking cells — passes Check,
// and cells the engine must abandon (hangs, cancellations) appear as
// tree-less stubs with their failure class rather than as leaked or
// half-open trees.
func TestSpanInvariantsUnderSeededChaos(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		plan := faults.NewPlan(seed, faults.DefaultDensity)
		f := matrixForest(t, 8, func(r *campaign.Runner) {
			r.ContinueOnError = true
			r.Faults = plan
		})
		plan.ReleaseAll()
		if err := f.Check(); err != nil {
			t.Errorf("seed %d: span invariant violated: %v", seed, err)
		}
		for _, cs := range f.Cells() {
			switch campaign.FailureClass(cs.Class) {
			case campaign.FailHang, campaign.FailCanceled:
				if cs.Tree != nil {
					t.Errorf("seed %d: abandoned cell %s carries a tree the engine cannot own", seed, cs.Cell)
				}
			default:
				if cs.Tree == nil {
					t.Errorf("seed %d: settled cell %s (class %q) has no tree", seed, cs.Cell, cs.Class)
				}
			}
		}
	}
}

// A hypercall-handler panic unwinds through the span layer: the
// salvaged tree closes every span, marks the interrupted ones aborted,
// and still carries the boot phase that completed before the blast.
func TestPanicLeavesClosedAbortedTree(t *testing.T) {
	const target = "4.6/XSA-182-test/exploit"
	plan := faults.NewPlan(0, 0).ArmCell(target, faults.SiteHypercallPanic, 1)
	f := matrixForest(t, 1, func(r *campaign.Runner) {
		r.ContinueOnError = true
		r.Faults = plan
	})
	if err := f.Check(); err != nil {
		t.Fatalf("forest invariants after panic: %v", err)
	}
	var hit *span.CellSpans
	for _, cs := range f.Cells() {
		if cs.Cell == target {
			hit = cs
		}
	}
	if hit == nil || hit.Tree == nil {
		t.Fatalf("panicked cell %s missing from the forest or tree-less", target)
	}
	if campaign.FailureClass(hit.Class) != campaign.FailPanic {
		t.Errorf("panicked cell classified %q, want %q", hit.Class, campaign.FailPanic)
	}
	aborted, boot := 0, false
	for _, s := range hit.Tree.Spans() {
		if s.Aborted {
			aborted++
		} else if s.Kind == span.KindPhase && s.Name == span.PhaseBoot {
			boot = true
		}
	}
	if aborted == 0 {
		t.Error("panicked cell's tree has no aborted spans; the unwind left no trace")
	}
	if !boot {
		t.Error("panicked cell's tree lost its completed boot phase")
	}
}

// A wedged cell is abandoned by the watchdog: its goroutine still owns
// the tree, so the forest records a tree-less hang stub and the
// remaining trees stay intact.
func TestWedgedCellRecordsTreelessStub(t *testing.T) {
	const target = "4.6/XSA-148-priv/exploit"
	base := runtime.NumGoroutine()
	plan := faults.NewPlan(0, 0).ArmCell(target, faults.SiteWedge, 1)
	f := matrixForest(t, 1, func(r *campaign.Runner) {
		r.ContinueOnError = true
		r.Faults = plan
		r.CellTimeout = 50 * time.Millisecond
	})
	if err := f.Check(); err != nil {
		t.Errorf("forest invariants after hang: %v", err)
	}
	found := false
	for _, cs := range f.Cells() {
		if cs.Cell != target {
			continue
		}
		found = true
		if cs.Tree != nil {
			t.Error("hung cell carries a tree owned by its abandoned goroutine")
		}
		if campaign.FailureClass(cs.Class) != campaign.FailHang {
			t.Errorf("hung cell classified %q, want %q", cs.Class, campaign.FailHang)
		}
	}
	if !found {
		t.Errorf("hung cell %s not recorded in the forest", target)
	}
	plan.ReleaseAll()
	awaitGoroutineBaseline(t, base)
}

// Cancellation before dispatch settles nothing: the batch is
// announced, no cell ever starts, and the forest snapshot drops every
// unsettled slot instead of presenting half-born trees.
func TestCanceledRunYieldsEmptyForest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &campaign.Runner{Workers: 4, ContinueOnError: true, Spans: span.NewCollector()}
	if _, err := r.RunMatrixContext(ctx); err != nil {
		t.Fatalf("canceled matrix run errored as a whole under ContinueOnError: %v", err)
	}
	f := r.Spans.Forest()
	if err := f.Check(); err != nil {
		t.Errorf("canceled forest invariants: %v", err)
	}
	for _, cs := range f.Cells() {
		if campaign.FailureClass(cs.Class) != campaign.FailCanceled || cs.Tree != nil {
			t.Errorf("canceled run settled cell %s (class %q, tree %v)", cs.Cell, cs.Class, cs.Tree != nil)
		}
	}
}
