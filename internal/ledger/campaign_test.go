package ledger_test

// Campaign integration: the ledger's determinism and resume contract
// against the real matrix. The settled record — the bytes of
// record.json, not just the digest — must be identical at any worker
// count, under seeded chaos, and fork vs fresh boot; an interrupted
// campaign resumed from its journal must merge to the same bytes an
// uninterrupted run writes.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/ledger"
	"repro/internal/telemetry"
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

// TestTornJournalAtEveryOffset journals a real matrix under seeded
// chaos and then tears cells.jsonl at every byte offset inside its last
// line, the states a crash mid-append can leave. At each offset the
// torn line must be skipped: Load settles exactly the other cells and
// the resume plan reruns exactly the torn line's cell.
//
// The resume path's writer (NewWriter after LatestMatching) reuses
// LatestMatching's decode of the journal. When the journal is torn
// between the two calls, the reuse must miss and the writer must start
// from the torn journal's cells; that is checked at the line's first,
// middle and last offsets, since each check decodes the whole journal
// twice.
func TestTornJournalAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	store, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	cfg := ledger.CurrentConfig(seed, true)
	w, err := store.NewWriter(cfg, ledger.PlanDelta(nil, cfg).Expected)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.NewPlan(seed, faults.DefaultDensity)
	defer plan.ReleaseAll()
	r := &campaign.Runner{Workers: 2, Observer: w, ContinueOnError: true, Faults: plan}
	if _, err := r.RunMatrixContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	full, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !full.Complete() || full.Failed() == 0 {
		t.Fatalf("journaled %d/%d cells, %d failed; want all, some failed", full.Completed, full.Cells, full.Failed())
	}

	// Completion order is arbitrary with two workers, so any order of
	// the lines is a journal the run could have written. The shortest
	// (a failed cell's) goes last, since every offset decodes the whole
	// journal.
	journal := filepath.Join(store.RunDir(full.RunID), "cells.jsonl")
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty tail after the final newline
	sort.SliceStable(lines, func(i, j int) bool { return len(lines[i]) > len(lines[j]) })
	data = bytes.Join(lines, nil)
	last := lines[len(lines)-1]
	start := len(data) - len(last)
	var torn ledger.Entry
	if err := json.Unmarshal(last, &torn); err != nil {
		t.Fatal(err)
	}
	tornRef := []campaign.CellRef{{Version: torn.Version, UseCase: torn.Scenario, Mode: campaign.Mode(torn.Mode)}}

	// untorn checks rec holds every cell but the torn one.
	untorn := func(what string, off int, rec *ledger.Record) {
		t.Helper()
		ok := rec.Completed == full.Completed-1 && rec.EntryByKey(torn.Key()) == nil
		for _, e := range full.Entries {
			ok = ok && (e.Key() == torn.Key() || rec.EntryByKey(e.Key()) != nil)
		}
		if !ok {
			t.Fatalf("offset %d: %s holds %d cells, want the %d untorn ones", off, what, rec.Completed, full.Completed-1)
		}
	}

	// Offsets start..len-2 leave the line without its closing brace;
	// len-1 drops only the newline, leaving a whole entry that decodes.
	for off := start; off < len(data)-1; off++ {
		if err := os.WriteFile(journal, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := store.LatestMatching(cfg)
		if err != nil {
			t.Fatal(err)
		}
		untorn("Load", off, rec)
		if rerun := ledger.PlanDelta(rec, cfg).Rerun; !reflect.DeepEqual(rerun, tornRef) {
			t.Fatalf("offset %d: resume reruns %v, want %v", off, rerun, tornRef)
		}
	}

	for _, off := range []int{start, (start + len(data) - 2) / 2, len(data) - 2} {
		if err := os.WriteFile(journal, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if prev, err := store.LatestMatching(cfg); err != nil || prev.Completed != full.Completed {
			t.Fatalf("offset %d: intact journal loads %v, %v", off, prev, err)
		}
		if err := os.Truncate(journal, int64(off)); err != nil {
			t.Fatal(err)
		}
		lw, err := store.NewWriter(cfg, full.Cells)
		if err != nil {
			t.Fatal(err)
		}
		snap := lw.Snapshot()
		if _, err := lw.Close(); err != nil {
			t.Fatal(err)
		}
		untorn("resumed writer", off, snap)
	}
}
