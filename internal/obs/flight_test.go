package obs

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/events"
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

// TestFlightRecorderConcurrentDumps has two workers dump different
// failing cells at once, as a chaos campaign's pool does: the dumps
// are written outside the recorder's lock, and both must land and be
// listed.
func TestFlightRecorderConcurrentDumps(t *testing.T) {
	dir := t.TempDir()
	fr := &FlightRecorder{Dir: dir, RunID: "f21da3650bd2e9ae"}
	cells := []string{"4.6/XSA-182-test/exploit", "4.13/XSA-212-crash/injection"}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, cell := range cells {
		wg.Add(1)
		go func(cell string) {
			defer wg.Done()
			<-start
			fr.CellFinished(cell, time.Millisecond, &telemetry.CellProfile{Cell: cell},
				&campaign.CellError{Cell: cell, Class: "error", Message: "boom"})
		}(cell)
	}
	close(start)
	wg.Wait()

	for _, err := range fr.Errors() {
		t.Errorf("flight recorder error: %v", err)
	}
	if dumps := fr.Dumps(); len(dumps) != len(cells) {
		t.Fatalf("got %d dumps %v, want one per cell", len(dumps), dumps)
	}
	for _, want := range []string{
		"flight-f21da3650bd2e9ae-4.6-XSA-182-test-exploit.jsonl",
		"flight-f21da3650bd2e9ae-4.13-XSA-212-crash-injection.jsonl",
	} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("missing dump %s: %v", want, err)
		}
	}
}

// TestForkedStreamConsumersMatchFreshBoot runs one seeded chaos matrix
// twice, forking every cell from its snapshot and booting every cell
// fresh, and holds the consumers of a profile's whole stream — a forked
// cell's shared boot prefix followed by its own events — to the fresh
// boot: every flight dump must equal its fresh-boot twin but for
// wall_ns, and the timeline's per-cell event counts (what /cells
// serves) must agree. Two cells are pinned on top of the seeded plan:
// one panics in its own tail, the other first loses its third own event
// to a sink-write fault.
func TestForkedStreamConsumersMatchFreshBoot(t *testing.T) {
	const tail, sinkFault = "4.6/XSA-148-priv/injection", "4.8/XSA-212-priv/exploit"
	prev := campaign.SnapshotsEnabled()
	t.Cleanup(func() { campaign.EnableSnapshots(prev) })
	wallNS := regexp.MustCompile(`"wall_ns":[0-9]+,?`)
	run := func(snapshots bool) (map[string]string, map[string]events.CellState) {
		t.Helper()
		campaign.EnableSnapshots(snapshots)
		fr := &FlightRecorder{Dir: t.TempDir()}
		tl := events.NewTimeline(events.NewBus(0, 0))
		plan := faults.NewPlan(7, faults.DefaultDensity).
			ArmCell(tail, faults.SiteHypercallPanic, 2).
			ArmCell(sinkFault, faults.SiteSinkWrite, 3).
			ArmCell(sinkFault, faults.SiteHypercallPanic, 1)
		r := &campaign.Runner{
			Workers:         4,
			ContinueOnError: true,
			SalvageProfiles: true,
			Telemetry:       telemetry.NewRegistry(),
			Faults:          plan,
			Progress:        fr,
			Sched:           tl,
		}
		_, err := r.RunMatrixContext(context.Background())
		plan.ReleaseAll()
		if err != nil {
			t.Fatalf("snapshots=%v: %v", snapshots, err)
		}
		for _, err := range fr.Errors() {
			t.Errorf("snapshots=%v: flight recorder error: %v", snapshots, err)
		}
		dumps := make(map[string]string)
		for _, path := range fr.Dumps() {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			dumps[filepath.Base(path)] = wallNS.ReplaceAllString(string(b), "")
		}
		cells := make(map[string]events.CellState)
		for _, c := range tl.Cells() {
			cells[c.Cell] = c
		}
		return dumps, cells
	}
	freshDumps, freshCells := run(false)
	forkDumps, forkCells := run(true)

	for _, cell := range []string{tail, sinkFault} {
		name := "flight-" + strings.ReplaceAll(cell, "/", "-") + ".jsonl"
		if _, ok := forkDumps[name]; !ok {
			t.Errorf("no flight dump for the pinned cell %s (dumps: %d)", cell, len(forkDumps))
		}
	}
	if len(forkDumps) != len(freshDumps) {
		t.Errorf("fork run wrote %d flight dumps, fresh boot %d", len(forkDumps), len(freshDumps))
	}
	for name, want := range freshDumps {
		got, ok := forkDumps[name]
		if !ok {
			t.Errorf("%s: dumped on fresh boot only", name)
			continue
		}
		if got != want {
			gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
			i := 0
			for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
				i++
			}
			t.Errorf("%s: fork dump differs from fresh boot at line %d (of %d, fresh %d)", name, i+1, len(gl), len(wl))
		}
	}
	if len(forkCells) != len(freshCells) || len(freshCells) == 0 {
		t.Fatalf("timeline tracked %d cells forked, %d fresh", len(forkCells), len(freshCells))
	}
	for cell, want := range freshCells {
		got := forkCells[cell]
		if got.Events != want.Events || got.Dropped != want.Dropped {
			t.Errorf("%s: timeline counts %d events (%d dropped) forked, %d (%d) fresh", cell, got.Events, got.Dropped, want.Events, want.Dropped)
		}
	}
	// Hung cells carry no profile and count nothing; the pinned cells
	// were salvaged, boot and all.
	for _, cell := range []string{tail, sinkFault} {
		if n := forkCells[cell].Events; n < 100 {
			t.Errorf("%s: timeline counts %d events, want its boot's hundreds and more", cell, n)
		}
	}
}
