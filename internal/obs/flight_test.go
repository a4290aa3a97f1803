package obs

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// TestFlightRecorderDumpsFailedCell arms a seeded hypercall panic in
// one cell, runs the matrix under -continue-on-error semantics with
// salvage profiling, and checks the flight recorder wrote exactly that
// cell's event ring as a parseable JSONL dump.
func TestFlightRecorderDumpsFailedCell(t *testing.T) {
	const victim = "4.6/XSA-182-test/exploit"
	dir := t.TempDir()
	fr := &FlightRecorder{Dir: dir}
	r := &campaign.Runner{
		Workers:         4,
		ContinueOnError: true,
		SalvageProfiles: true,
		Faults:          faults.NewPlan(0, 0).ArmCell(victim, faults.SiteHypercallPanic, 1),
		Progress:        fr,
	}
	if _, err := r.RunMatrixContext(context.Background()); err != nil {
		t.Fatalf("matrix under continue-on-error: %v", err)
	}

	for _, err := range fr.Errors() {
		t.Errorf("flight recorder error: %v", err)
	}
	dumps := fr.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps %v, want exactly the armed cell", len(dumps), dumps)
	}
	want := filepath.Join(dir, "flight-4.6-XSA-182-test-exploit.jsonl")
	if dumps[0] != want {
		t.Fatalf("dump path %q, want %q", dumps[0], want)
	}

	// Healthy cells must not leave dumps behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("flight dir holds %d files, want 1", len(entries))
	}

	// The dump is a real trace: parseable, non-empty, and every record
	// belongs to the failed cell.
	f, err := os.Open(want)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := telemetry.ReadTrace(f)
	if err != nil {
		t.Fatalf("flight dump does not parse: %v", err)
	}
	if len(records) == 0 {
		t.Fatal("flight dump is empty")
	}
	events := 0
	for _, rec := range records {
		if rec.Cell != victim {
			t.Errorf("record from cell %q in %s's dump", rec.Cell, victim)
		}
		if rec.Kind != telemetry.CellEndKind {
			events++
		}
	}
	if events == 0 {
		t.Error("flight dump carries no events, only the summary")
	}
}

// TestFlightRecorderRunIDNamespacesAndKeepsCollisions pins the dump
// naming contract: a run ID namespaces the file, and a second failure
// of the same cell — two consecutive failing runs of the same
// configuration dumping into the same directory — keeps both dumps
// instead of truncating the first.
func TestFlightRecorderRunIDNamespacesAndKeepsCollisions(t *testing.T) {
	const cell = "4.6/XSA-182-test/exploit"
	dir := t.TempDir()
	profile := &telemetry.CellProfile{Cell: cell}
	cerr := &campaign.CellError{Cell: cell, Class: "error", Message: "boom"}

	for run := 0; run < 2; run++ {
		fr := &FlightRecorder{Dir: dir, RunID: "f21da3650bd2e9ae"}
		fr.CellFinished(cell, time.Millisecond, profile, cerr)
		for _, err := range fr.Errors() {
			t.Errorf("run %d: flight recorder error: %v", run, err)
		}
		if dumps := fr.Dumps(); len(dumps) != 1 {
			t.Fatalf("run %d: got %d dumps %v", run, len(dumps), dumps)
		}
	}

	for _, want := range []string{
		"flight-f21da3650bd2e9ae-4.6-XSA-182-test-exploit.jsonl",
		"flight-f21da3650bd2e9ae-4.6-XSA-182-test-exploit-2.jsonl",
	} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing dump %s: %v", want, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("flight dir holds %d files, want both runs' dumps", len(entries))
	}
}

// TestFlightRecorderSkips pins the two no-dump cases: a clean cell
// (no error) and a hung/canceled cell (error but no salvaged profile,
// its goroutine was abandoned holding the recorder).
func TestFlightRecorderSkips(t *testing.T) {
	dir := t.TempDir()
	fr := &FlightRecorder{Dir: dir}
	profile := &telemetry.CellProfile{Cell: "4.6/x/exploit"}
	fr.CellFinished("4.6/x/exploit", time.Millisecond, profile, nil)
	fr.CellFinished("4.6/x/injection", time.Millisecond, nil,
		&campaign.CellError{Cell: "4.6/x/injection", Class: "hang", Message: "watchdog"})
	if dumps := fr.Dumps(); len(dumps) != 0 {
		t.Errorf("unexpected dumps %v", dumps)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("flight dir not empty: %d files", len(entries))
	}
}
