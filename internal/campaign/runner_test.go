package campaign_test

// The parallel campaign engine's contract: any worker count produces
// results identical to the serial path, because every cell runs in its
// own fresh environment and results are reassembled in cell order. The
// tests compare the *rendered* artifacts (report strings and the JSON
// export, all projected from one matrix run), which is exactly what the
// paper-reproduction pipeline consumes — byte equality there is the
// whole guarantee.

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/exploits"
	"repro/internal/hv"
	"repro/internal/report"
	"repro/internal/span"
)

var workerCounts = []int{1, 4, 8}

// matrixAt returns the matrix entries of a run with w workers.
func matrixAt(t *testing.T, w int) []campaign.MatrixEntry {
	t.Helper()
	entries, err := (&campaign.Runner{Workers: w}).RunMatrixContext(context.Background())
	if err != nil {
		t.Fatalf("Workers=%d RunMatrixContext: %v", w, err)
	}
	return entries
}

// checkAcrossWorkers renders one projection of a matrix run — the
// matrix, Table III, Fig. 4, the scores or the JSON export — at every
// worker count in ws and compares it with the serial run.
func checkAcrossWorkers(t *testing.T, what string, ws []int, render func([]campaign.MatrixEntry) string) {
	t.Helper()
	serial := render(matrixAt(t, 1))
	for _, w := range ws {
		if got := render(matrixAt(t, w)); got != serial {
			t.Errorf("Workers=%d %s differs from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				w, what, serial, w, got)
		}
	}
}

// versionNames lists every hypervisor profile by name, in campaign
// order.
func versionNames() []string {
	var names []string
	for _, v := range hv.Versions() {
		names = append(names, v.Name)
	}
	return names
}

// runSpecs runs the matrix over specs on r: every version each spec
// applies to, both modes, in dispatch order.
func runSpecs(t *testing.T, r *campaign.Runner, specs []exploits.Spec) []campaign.MatrixEntry {
	t.Helper()
	entries, err := r.RunCellRefs(context.Background(), campaign.MatrixRefs(versionNames(), specs))
	if err != nil {
		t.Fatalf("Workers=%d RunCellRefs: %v", r.Workers, err)
	}
	return entries
}

// exportMatrix runs the matrix over specs on r and returns its JSON
// artifact.
func exportMatrix(t *testing.T, r *campaign.Runner, specs []exploits.Spec) []byte {
	t.Helper()
	entries := runSpecs(t, r, specs)
	var buf bytes.Buffer
	if err := campaign.WriteExport(&buf, entries, r.Faults.Seed(), r.ContinueOnError); err != nil {
		t.Fatalf("WriteExport: %v", err)
	}
	return buf.Bytes()
}

func TestRunnerMatrixDeterministicAcrossWorkerCounts(t *testing.T) {
	checkAcrossWorkers(t, "matrix", workerCounts, report.Matrix)
}

func TestRunnerTable3DeterministicAcrossWorkerCounts(t *testing.T) {
	checkAcrossWorkers(t, "Table III", workerCounts, func(entries []campaign.MatrixEntry) string {
		rows, err := campaign.Table3Rows(entries)
		if err != nil {
			t.Fatalf("Table3Rows: %v", err)
		}
		return report.TableIII(rows, []string{"4.8", "4.13"})
	})
}

func TestRunnerFig4DeterministicAcrossWorkerCounts(t *testing.T) {
	checkAcrossWorkers(t, "Fig. 4", workerCounts, func(entries []campaign.MatrixEntry) string {
		rows, err := campaign.Fig4Rows(entries)
		if err != nil {
			t.Fatalf("Fig4Rows: %v", err)
		}
		return report.Fig4(rows)
	})
}

func TestRunnerExportMatrixDeterministic(t *testing.T) {
	checkAcrossWorkers(t, "JSON export", []int{6}, func(entries []campaign.MatrixEntry) string {
		var buf bytes.Buffer
		if err := campaign.WriteExport(&buf, entries, 0, false); err != nil {
			t.Fatalf("WriteExport: %v", err)
		}
		return buf.String()
	})
}

func TestRunnerSecurityBenchmarkDeterministic(t *testing.T) {
	checkAcrossWorkers(t, "scores", []int{4}, func(entries []campaign.MatrixEntry) string {
		scores, err := campaign.Scores(entries)
		if err != nil {
			t.Fatalf("Scores: %v", err)
		}
		return report.Scoreboard(scores)
	})
}

// The engine must surface a cell's failure with the same error text the
// serial loops used, picking the first failing cell in cell order no
// matter which worker hit it.
func TestRunnerUnknownUseCaseError(t *testing.T) {
	for _, w := range []int{1, 4} {
		_, err := (&campaign.Runner{Workers: w}).RunContext(context.Background(), campaign.Table3Versions()[0], "XSA-0-bogus", campaign.ModeInjection)
		if err == nil {
			t.Fatalf("Workers=%d: run of unknown use case succeeded", w)
		}
		if !strings.Contains(err.Error(), `unknown use case "XSA-0-bogus"`) {
			t.Errorf("Workers=%d: error = %v, want unknown-use-case text", w, err)
		}
	}
}

// countingObserver counts CellSettled deliveries.
type countingObserver struct{ settled atomic.Int64 }

func (o *countingObserver) CellSettled(campaign.CellRef, *campaign.RunResult, *campaign.CellError, *coverage.Map, span.Latency, uint64, time.Duration) {
	o.settled.Add(1)
}

// An unknown use case in a ref list fails resolution before the batch
// is announced: no cell runs, and neither the schedule nor the settle
// hook hears of any.
func TestRunCellRefsRejectsUnknownUseCaseBeforeDispatch(t *testing.T) {
	valid := campaign.MatrixRefs([]string{"4.6"}, exploits.Specs())
	bogus := campaign.CellRef{Version: "4.6", UseCase: "XSA-0-bogus", Mode: campaign.ModeExploit}
	refs := []campaign.CellRef{valid[0], valid[1], bogus, valid[2], valid[3]}
	for _, w := range []int{1, 4} {
		sched, obs := newRecordingSched(), &countingObserver{}
		_, err := (&campaign.Runner{Workers: w, Sched: sched, Observer: obs}).RunCellRefs(context.Background(), refs)
		want := `campaign: cell ref 4.6/XSA-0-bogus/exploit: exploits: unknown use case "XSA-0-bogus"`
		if err == nil || err.Error() != want {
			t.Errorf("Workers=%d: error = %v, want %s", w, err, want)
		}
		if sched.batches != 0 || len(sched.dispatched) != 0 || len(sched.settled) != 0 {
			t.Errorf("Workers=%d: schedule hook fired (batches=%d dispatched=%d settled=%d)",
				w, sched.batches, len(sched.dispatched), len(sched.settled))
		}
		if n := obs.settled.Load(); n != 0 {
			t.Errorf("Workers=%d: observer settled %d cells, want 0", w, n)
		}
	}
}

// A zero-value Runner must resolve to a positive pool size.
func TestRunnerDefaultWorkers(t *testing.T) {
	entries, err := (&campaign.Runner{}).RunMatrixContext(context.Background())
	if err != nil {
		t.Fatalf("zero-value Runner RunMatrixContext: %v", err)
	}
	if len(entries) != 102 {
		t.Errorf("got %d matrix entries, want 102", len(entries))
	}
}

// A negative Workers value clamps to the serial path instead of
// surprising a library caller with a fan-out (the CLI rejects negatives
// before they get here). The output must match the serial run exactly.
func TestRunnerNegativeWorkersClampToSerial(t *testing.T) {
	serial, err := (&campaign.Runner{Workers: 1}).RunMatrixContext(context.Background())
	if err != nil {
		t.Fatalf("serial RunMatrixContext: %v", err)
	}
	neg, err := (&campaign.Runner{Workers: -3}).RunMatrixContext(context.Background())
	if err != nil {
		t.Fatalf("Workers=-3 RunMatrixContext: %v", err)
	}
	if got, want := report.Matrix(neg), report.Matrix(serial); got != want {
		t.Errorf("Workers=-3 output differs from serial:\n%s\nvs\n%s", got, want)
	}
}
