package ledger_test

// Campaign integration: the ledger's determinism and resume contract
// against the real matrix. The settled record — the bytes of
// record.json, not just the digest — must be identical at any worker
// count, under seeded chaos, and fork vs fresh boot; an interrupted
// campaign resumed from its journal must merge to the same bytes an
// uninterrupted run writes.

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/ledger"
	"repro/internal/telemetry"
	"repro/internal/tracediff"
)

// runLedgerCampaign mirrors the repro binary's -ledger flow: plan the
// delta against the store's latest compatible record, journal the
// rerun, grade equivalence when the merged record is clean, settle.
// When interruptAfter > 0 the campaign context is canceled after that
// many cells finish, simulating SIGINT mid-run.
func runLedgerCampaign(t *testing.T, dir string, workers int, seed int64, interruptAfter int32) *ledger.Record {
	t.Helper()
	store, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	continueOnError := seed != 0
	cfg := ledger.CurrentConfig(seed, continueOnError)
	prev, err := store.LatestMatching(cfg)
	if err != nil {
		t.Fatal(err)
	}
	delta := ledger.PlanDelta(prev, cfg)
	w, err := store.NewWriter(cfg, delta.Expected)
	if err != nil {
		t.Fatal(err)
	}
	if prev != nil && prev.RunID != w.RunID() {
		w.Import(delta.Reused)
	}

	ctx := context.Background()
	r := &campaign.Runner{Workers: workers, Observer: w, ContinueOnError: continueOnError}
	if seed != 0 {
		plan := faults.NewPlan(seed, faults.DefaultDensity)
		r.Faults = plan
		defer plan.ReleaseAll()
	}
	if interruptAfter > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		r.Progress = &cancelAfter{n: interruptAfter, cancel: cancel}
	}

	_, runErr := r.RunCellRefs(ctx, delta.Rerun)
	if runErr != nil {
		if interruptAfter == 0 {
			t.Fatalf("workers=%d seed=%d: %v", workers, seed, runErr)
		}
		// The interrupted path: close flushes everything that settled.
		w.StripEquivalence()
		rec, _ := w.Close()
		return rec
	}
	if snap := w.Snapshot(); snap.Complete() && snap.Failed() == 0 {
		verdicts, eqErr := ledger.Equivalence(snap)
		if eqErr != nil {
			t.Fatalf("equivalence from record: %v", eqErr)
		}
		w.RecordEquivalence(verdicts)
	} else {
		w.StripEquivalence()
	}
	rec, err := w.Close()
	if err != nil {
		t.Fatalf("close ledger: %v", err)
	}
	return rec
}

// cancelAfter cancels the campaign context once n cells have finished.
type cancelAfter struct {
	n      int32
	done   atomic.Int32
	cancel context.CancelFunc
}

func (c *cancelAfter) CellFinished(string, time.Duration, *telemetry.CellProfile, *campaign.CellError) {
	if c.done.Add(1) == c.n {
		c.cancel()
	}
}

// recordBytes reads the settled record.json a run wrote.
func recordBytes(t *testing.T, dir, runID string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, runID, "record.json"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestLedgerRecordDeterministic pins the settled record bytes across
// worker counts, with and without seeded chaos. Under chaos some cells
// fail; the record must still be byte-identical — failure class and
// message are part of the canonical outcome.
func TestLedgerRecordDeterministic(t *testing.T) {
	for _, seed := range []int64{0, 7, 99} {
		ref := runLedgerCampaign(t, t.TempDir(), 1, seed, 0)
		refBytes := ""
		for _, workers := range []int{1, 4, 8} {
			dir := t.TempDir()
			rec := runLedgerCampaign(t, dir, workers, seed, 0)
			if rec.RunID != ref.RunID {
				t.Fatalf("seed=%d workers=%d: run ID %s, want %s", seed, workers, rec.RunID, ref.RunID)
			}
			got := recordBytes(t, dir, rec.RunID)
			if refBytes == "" {
				refBytes = got
				if err := rec.Verify(); err != nil {
					t.Fatalf("seed=%d: record fails verification: %v", seed, err)
				}
				if !rec.Complete() {
					t.Fatalf("seed=%d: record incomplete: %d/%d", seed, rec.Completed, rec.Cells)
				}
				if seed == 0 && rec.Failed() != 0 {
					t.Fatalf("clean run has %d failed cells", rec.Failed())
				}
				continue
			}
			if got != refBytes {
				t.Errorf("seed=%d: record bytes at workers=%d diverge from workers=1", seed, workers)
			}
		}
	}
}

// TestLedgerForkVsFreshIdentical compares the settled record between
// snapshot-fork and fresh-boot cell construction.
func TestLedgerForkVsFreshIdentical(t *testing.T) {
	was := campaign.SnapshotsEnabled()
	defer campaign.EnableSnapshots(was)

	campaign.EnableSnapshots(false)
	freshDir := t.TempDir()
	fresh := runLedgerCampaign(t, freshDir, 4, 0, 0)

	campaign.EnableSnapshots(true)
	forkDir := t.TempDir()
	fork := runLedgerCampaign(t, forkDir, 4, 0, 0)

	if a, b := recordBytes(t, freshDir, fresh.RunID), recordBytes(t, forkDir, fork.RunID); a != b {
		t.Error("fork record bytes diverge from fresh boot")
	}
}

// TestResumeAfterInterruptMergesByteIdentical interrupts a campaign
// mid-run, then resumes from the journal and checks the merged record
// and its graded equivalence are byte-identical to an uninterrupted
// run — and that the resume actually skipped the settled cells.
func TestResumeAfterInterruptMergesByteIdentical(t *testing.T) {
	refDir := t.TempDir()
	ref := runLedgerCampaign(t, refDir, 4, 0, 0)

	dir := t.TempDir()
	partial := runLedgerCampaign(t, dir, 4, 0, 10)
	if partial.Completed == 0 || partial.Completed >= partial.Cells {
		t.Fatalf("interrupt settled %d/%d cells, want a strict partial", partial.Completed, partial.Cells)
	}

	// The resume plan must reuse exactly the settled cells.
	cfg := ledger.CurrentConfig(0, false)
	store, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := store.LatestMatching(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := ledger.PlanDelta(prev, cfg)
	if len(d.Reused) != partial.Completed || len(d.Rerun) != partial.Cells-partial.Completed {
		t.Fatalf("resume plan reuses %d and reruns %d, want %d and %d",
			len(d.Reused), len(d.Rerun), partial.Completed, partial.Cells-partial.Completed)
	}

	merged := runLedgerCampaign(t, dir, 4, 0, 0)
	if merged.RunID != ref.RunID {
		t.Fatalf("merged run ID %s, want %s", merged.RunID, ref.RunID)
	}
	if a, b := recordBytes(t, refDir, ref.RunID), recordBytes(t, dir, merged.RunID); a != b {
		t.Error("merged record bytes diverge from the uninterrupted run")
	}
}

// TestLiveAndRecordGradingAgree runs the full matrix once, profiled and
// journaled, and grades RQ2 twice: from the live entries and from the
// writer's record. Both project into the one grader, so all 51 verdicts
// must agree field for field.
func TestLiveAndRecordGradingAgree(t *testing.T) {
	store, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ledger.CurrentConfig(0, false)
	w, err := store.NewWriter(cfg, ledger.PlanDelta(nil, cfg).Expected)
	if err != nil {
		t.Fatal(err)
	}
	r := &campaign.Runner{Workers: 4, Telemetry: telemetry.NewRegistry(), Observer: w}
	entries, err := r.RunMatrixContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	live, err := tracediff.MatrixEquivalence(entries)
	if err != nil {
		t.Fatalf("live grading: %v", err)
	}
	recorded, err := ledger.Equivalence(w.Snapshot())
	if err != nil {
		t.Fatalf("record grading: %v", err)
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(live) != 51 || len(recorded) != len(live) {
		t.Fatalf("got %d live and %d record verdicts, want 51 each", len(live), len(recorded))
	}
	for i := range live {
		if !reflect.DeepEqual(live[i], recorded[i]) {
			t.Errorf("%s/%s: live %+v, record %+v", live[i].Version, live[i].UseCase, live[i], recorded[i])
		}
	}
}

// TestRecordDerivedArtifacts checks the record rebuilds the campaign's
// downstream artifacts: matrix entries for every cell, a verifying
// coverage report with the full matrix, and a graded equivalence table.
func TestRecordDerivedArtifacts(t *testing.T) {
	dir := t.TempDir()
	rec := runLedgerCampaign(t, dir, 4, 0, 0)

	entries := rec.MatrixEntries()
	if len(entries) != rec.Completed {
		t.Fatalf("rebuilt %d matrix entries from %d cells", len(entries), rec.Completed)
	}
	verdicts, ok := rec.EquivalenceVerdicts()
	if !ok || len(verdicts) != rec.Completed/2 {
		t.Fatalf("equivalence: ok=%t verdicts=%d, want %d (one per injection cell)", ok, len(verdicts), rec.Completed/2)
	}
	for _, cv := range verdicts {
		if cv.Tier == "" || cv.Basis == "" {
			t.Errorf("ungraded verdict in record: %+v", cv)
		}
	}
	rep := rec.CoverageReport()
	if len(rep.Cells) != rec.Completed {
		t.Fatalf("coverage report rebuilt %d cells from %d", len(rep.Cells), rec.Completed)
	}
	if err := rep.Verify(); err != nil {
		t.Errorf("rebuilt coverage report fails verification: %v", err)
	}
}
