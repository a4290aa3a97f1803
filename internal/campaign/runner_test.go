package campaign_test

// The parallel campaign engine's contract: any worker count produces
// results identical to the serial path, because every cell runs in its
// own fresh environment and results are reassembled in cell order. The
// tests compare the *rendered* artifacts (report strings and the JSON
// export), which is exactly what the paper-reproduction pipeline
// consumes — byte equality there is the whole guarantee.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/report"
)

var workerCounts = []int{1, 4, 8}

func TestRunnerMatrixDeterministicAcrossWorkerCounts(t *testing.T) {
	entries, err := (&campaign.Runner{Workers: 1}).RunMatrixContext(context.Background())
	if err != nil {
		t.Fatalf("serial RunMatrixContext: %v", err)
	}
	serial := report.Matrix(entries)
	for _, w := range workerCounts {
		r := &campaign.Runner{Workers: w}
		entries, err := r.RunMatrixContext(context.Background())
		if err != nil {
			t.Fatalf("Workers=%d RunMatrixContext: %v", w, err)
		}
		if got := report.Matrix(entries); got != serial {
			t.Errorf("Workers=%d matrix differs from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				w, serial, w, got)
		}
	}
}

func TestRunnerTable3DeterministicAcrossWorkerCounts(t *testing.T) {
	versions := []string{"4.8", "4.13"}
	rows, err := (&campaign.Runner{Workers: 1}).RunTable3Context(context.Background())
	if err != nil {
		t.Fatalf("serial RunTable3Context: %v", err)
	}
	serial := report.TableIII(rows, versions)
	for _, w := range workerCounts {
		r := &campaign.Runner{Workers: w}
		rows, err := r.RunTable3Context(context.Background())
		if err != nil {
			t.Fatalf("Workers=%d RunTable3Context: %v", w, err)
		}
		if got := report.TableIII(rows, versions); got != serial {
			t.Errorf("Workers=%d Table III differs from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				w, serial, w, got)
		}
	}
}

func TestRunnerFig4DeterministicAcrossWorkerCounts(t *testing.T) {
	rows, err := (&campaign.Runner{Workers: 1}).RunFig4Context(context.Background())
	if err != nil {
		t.Fatalf("serial RunFig4Context: %v", err)
	}
	serial := report.Fig4(rows)
	for _, w := range workerCounts {
		r := &campaign.Runner{Workers: w}
		rows, err := r.RunFig4Context(context.Background())
		if err != nil {
			t.Fatalf("Workers=%d RunFig4Context: %v", w, err)
		}
		if got := report.Fig4(rows); got != serial {
			t.Errorf("Workers=%d Fig. 4 differs from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				w, serial, w, got)
		}
	}
}

func TestRunnerExportMatrixDeterministic(t *testing.T) {
	var serial bytes.Buffer
	if err := (&campaign.Runner{Workers: 1}).ExportMatrixContext(context.Background(), &serial); err != nil {
		t.Fatalf("serial ExportMatrixContext: %v", err)
	}
	var parallel bytes.Buffer
	r := &campaign.Runner{Workers: 6}
	if err := r.ExportMatrixContext(context.Background(), &parallel); err != nil {
		t.Fatalf("parallel ExportMatrixContext: %v", err)
	}
	if serial.String() != parallel.String() {
		t.Error("parallel JSON export differs from serial")
	}
}

func TestRunnerSecurityBenchmarkDeterministic(t *testing.T) {
	serial, err := (&campaign.Runner{Workers: 1}).SecurityBenchmarkContext(context.Background())
	if err != nil {
		t.Fatalf("serial SecurityBenchmarkContext: %v", err)
	}
	r := &campaign.Runner{Workers: 4}
	parallel, err := r.SecurityBenchmarkContext(context.Background())
	if err != nil {
		t.Fatalf("parallel SecurityBenchmarkContext: %v", err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("score count: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("score %d: serial %v, parallel %v", i, serial[i], parallel[i])
		}
	}
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

// A zero-value Runner must resolve to a positive pool size.
func TestRunnerDefaultWorkers(t *testing.T) {
	r := &campaign.Runner{}
	rows, err := r.RunFig4Context(context.Background())
	if err != nil {
		t.Fatalf("zero-value Runner RunFig4Context: %v", err)
	}
	if len(rows) != 17 {
		t.Errorf("got %d Fig. 4 rows, want 17", len(rows))
	}
}

// A negative Workers value clamps to the serial path instead of
// surprising a library caller with a fan-out (the CLI rejects negatives
// before they get here). The output must match the serial run exactly.
func TestRunnerNegativeWorkersClampToSerial(t *testing.T) {
	serial, err := (&campaign.Runner{Workers: 1}).RunFig4Context(context.Background())
	if err != nil {
		t.Fatalf("serial RunFig4Context: %v", err)
	}
	neg, err := (&campaign.Runner{Workers: -3}).RunFig4Context(context.Background())
	if err != nil {
		t.Fatalf("Workers=-3 RunFig4Context: %v", err)
	}
	if got, want := report.Fig4(neg), report.Fig4(serial); got != want {
		t.Errorf("Workers=-3 output differs from serial:\n%s\nvs\n%s", got, want)
	}
}
