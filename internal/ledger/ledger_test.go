package ledger_test

// Unit contract of the run ledger: content-addressed identity,
// canonical settling, self-verification, journal crash-safety, delta
// planning, and the regression diff — everything below the campaign
// integration layer.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/exploits"
	"repro/internal/ledger"
)

// testConfig is a small fixed-identity config for unit tests; the
// version order is deliberately non-lexicographic (4.13 < "4.6" as a
// string) so dispatch-order sorting is actually exercised.
func testConfig() ledger.Config {
	return ledger.Config{
		RegistryDigest: "0123456789abcdef",
		Versions:       []string{"4.6", "4.8", "4.13"},
		Seed:           0,
		BuildVersion:   "test",
	}
}

func entry(version, scenario, mode string, wallNS int64) *ledger.Entry {
	return &ledger.Entry{
		Scenario: scenario,
		Version:  version,
		Mode:     mode,
		Verdict:  &ledger.VerdictRecord{ErroneousState: true, SecurityViolation: true},
		WallNS:   wallNS,
	}
}

func TestRunIDStableAndSensitive(t *testing.T) {
	base := testConfig()
	if base.RunID() != testConfig().RunID() {
		t.Fatal("identical configs must share a run ID")
	}
	seen := map[string]string{base.RunID(): "base"}
	for name, mutate := range map[string]func(*ledger.Config){
		"seed":     func(c *ledger.Config) { c.Seed = 7 },
		"registry": func(c *ledger.Config) { c.RegistryDigest = "fedcba9876543210" },
		"versions": func(c *ledger.Config) { c.Versions = c.Versions[:2] },
		"continue": func(c *ledger.Config) { c.ContinueOnError = true },
		"build":    func(c *ledger.Config) { c.BuildVersion = "other" },
	} {
		c := testConfig()
		mutate(&c)
		id := c.RunID()
		if prior, dup := seen[id]; dup {
			t.Errorf("mutating %s collides with %s: run ID %s", name, prior, id)
		}
		seen[id] = name
	}
}

func TestCompatibleExemptsRegistryOnly(t *testing.T) {
	base := testConfig()
	drift := testConfig()
	drift.RegistryDigest = "fedcba9876543210"
	if !drift.Compatible(base) {
		t.Error("registry drift must stay compatible (delta reruns patch corpus growth)")
	}
	for name, mutate := range map[string]func(*ledger.Config){
		"seed":     func(c *ledger.Config) { c.Seed = 7 },
		"versions": func(c *ledger.Config) { c.Versions = c.Versions[:2] },
		"continue": func(c *ledger.Config) { c.ContinueOnError = true },
		"build":    func(c *ledger.Config) { c.BuildVersion = "other" },
	} {
		c := testConfig()
		mutate(&c)
		if c.Compatible(base) {
			t.Errorf("%s mismatch must be incompatible", name)
		}
	}
}

// TestSettleCanonicalForm pins the settle semantics: canceled entries
// dropped, wall time zeroed, dispatch order imposed regardless of
// arrival order, and the digest verifying.
func TestSettleCanonicalForm(t *testing.T) {
	cfg := testConfig()
	run := &ledger.Run{RunID: cfg.RunID(), Config: cfg, CreatedUnixNS: 12345, Cells: 4}
	entries := []*ledger.Entry{
		entry("4.13", "XSA-212-crash", "injection", 900),
		entry("4.6", "XSA-212-crash", "exploit", 100),
		{Scenario: "XSA-212-crash", Version: "4.8", Mode: "exploit",
			Error: &campaign.CellError{Cell: "4.8/XSA-212-crash/exploit", Class: campaign.FailCanceled, Message: "interrupted"}},
		entry("4.6", "XSA-212-crash", "injection", 200),
	}
	rec := ledger.Settle(run, entries)

	if rec.Completed != 3 {
		t.Fatalf("settled %d cells, want 3 (canceled dropped)", rec.Completed)
	}
	order := make([]string, len(rec.Entries))
	for i, e := range rec.Entries {
		if e.WallNS != 0 {
			t.Errorf("entry %s keeps wall time %d in canonical record", e.Key(), e.WallNS)
		}
		order[i] = e.Version + "/" + e.Mode
	}
	want := []string{"4.6/exploit", "4.6/injection", "4.13/injection"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
	if entries[0].WallNS != 900 {
		t.Error("Settle must not mutate the caller's entries")
	}
	if err := rec.Verify(); err != nil {
		t.Fatalf("settled record fails verification: %v", err)
	}
	if got := ledger.Settle(run, entries).Digest; got != rec.Digest {
		t.Errorf("settling twice gives digests %s and %s", rec.Digest, got)
	}
}

func TestRecordFileRoundTripAndTamperDetection(t *testing.T) {
	cfg := testConfig()
	run := &ledger.Run{RunID: cfg.RunID(), Config: cfg, Cells: 1}
	rec := ledger.Settle(run, []*ledger.Entry{entry("4.6", "XSA-212-crash", "exploit", 0)})
	path := filepath.Join(t.TempDir(), "record.json")
	if err := ledger.WriteRecordFile(path, rec); err != nil {
		t.Fatal(err)
	}
	back, err := ledger.LoadRecordFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Canonical() != rec.Canonical() {
		t.Error("canonical form changed across the file round trip")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), `"erroneous_state": true`, `"erroneous_state": false`, 1)
	if tampered == string(data) {
		t.Fatal("tamper substitution did not apply")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ledger.LoadRecordFile(path); err == nil {
		t.Error("hand-edited record must fail verification")
	}
}

// TestJournalLastWinsAndCrashSafety corrupts a journal the ways a crash
// can: duplicate keys (a resumed re-execution), a garbage line, and a
// truncated final line. Load must settle last-wins and skip the damage.
// A line carrying a member the entry no longer has (the detection
// latency older builds journaled) still loads and wins.
func TestJournalLastWinsAndCrashSafety(t *testing.T) {
	dir := t.TempDir()
	store, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	w, err := store.NewWriter(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	stale := entry("4.6", "XSA-212-crash", "exploit", 1)
	stale.Verdict.Handled = true
	fresh := entry("4.6", "XSA-212-crash", "exploit", 2)
	other := entry("4.6", "XSA-212-crash", "injection", 3)
	w.Import([]*ledger.Entry{stale, fresh, other})
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(store.RunDir(cfg.RunID()), "cells.jsonl")
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"scenario":"XSA-212-crash","version":"4.6","mode":"injection",` +
		`"verdict":{"erroneous_state":true,"security_violation":true,"handled":true},` +
		`"latency":{"found":true,"trigger_v":267,"evidence_v":267,"events":0},"wall_ns":4}` + "\n" +
		"not json\n{\"scenario\":\"XSA-212-cra"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec, err := store.Load(cfg.RunID())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Completed != 2 {
		t.Fatalf("settled %d cells, want 2 (last-wins dedupe, damage skipped)", rec.Completed)
	}
	if e := rec.EntryByKey(other.Key()); e == nil || !e.Verdict.Handled {
		t.Errorf("journal line with a latency member was not read: %+v", e)
	}
	e := rec.EntryByKey(ledger.Key{Scenario: "XSA-212-crash", Version: "4.6", Mode: "exploit"})
	if e == nil || e.Verdict.Handled {
		t.Errorf("stale journal entry survived dedupe: %+v", e)
	}
}

func TestStoreRunsNewestFirst(t *testing.T) {
	store, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		cfg := testConfig()
		cfg.Seed = seed
		w, err := store.NewWriter(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := store.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("store lists %d runs, want 3", len(runs))
	}
	for i := 1; i < len(runs); i++ {
		if runs[i-1].CreatedUnixNS < runs[i].CreatedUnixNS {
			t.Errorf("runs not newest-first: %d before %d", runs[i-1].CreatedUnixNS, runs[i].CreatedUnixNS)
		}
	}
	latest, err := store.LatestMatching(func() ledger.Config { c := testConfig(); c.Seed = 2; return c }())
	if err != nil || latest == nil {
		t.Fatalf("LatestMatching(seed=2) = %v, %v", latest, err)
	}
	none, err := store.LatestMatching(func() ledger.Config { c := testConfig(); c.Seed = 99; return c }())
	if err != nil || none != nil {
		t.Errorf("LatestMatching(seed=99) = %v, %v, want nil, nil", none, err)
	}
}

// TestCloseWriteFailureKeepsRunListed: run.json and record.json are
// replaced through a temporary file renamed over them, so a Close whose
// writes fail leaves both files as they were. The run stays listed and
// Load still rebuilds its record from the journal, which already holds
// the cells the failed Close was settling.
func TestCloseWriteFailureKeepsRunListed(t *testing.T) {
	store, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	first, err := store.NewWriter(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	first.Import([]*ledger.Entry{entry("4.6", "XSA-212-crash", "exploit", 1)})
	if _, err := first.Close(); err != nil {
		t.Fatal(err)
	}
	resumed, err := store.NewWriter(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Import([]*ledger.Entry{entry("4.6", "XSA-212-crash", "injection", 2)})

	dir := store.RunDir(cfg.RunID())
	before := make(map[string][]byte)
	for _, name := range []string{"run.json", "record.json"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		before[name] = b
		// A directory on the temporary name makes the write fail.
		if err := os.Mkdir(filepath.Join(dir, name+".tmp"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := resumed.Close(); err == nil {
		t.Fatal("Close succeeded with both temporary names occupied")
	}
	for name, want := range before {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || string(got) != string(want) {
			t.Errorf("%s changed by a failed Close (err %v):\n%s\nwas:\n%s", name, err, got, want)
		}
	}
	runs, err := store.Runs()
	if err != nil || len(runs) != 1 || runs[0].RunID != cfg.RunID() {
		t.Fatalf("Runs() = %v, %v; want the one run listed", runs, err)
	}
	rec, err := store.Load(cfg.RunID())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Completed != 2 {
		t.Errorf("Load rebuilt %d cells, want the journal's 2", rec.Completed)
	}
}

// liveEntries builds an entry for every cell of the live registry in
// dispatch order — the shape PlanDelta walks.
func liveEntries(t *testing.T, cfg ledger.Config) []*ledger.Entry {
	t.Helper()
	var out []*ledger.Entry
	for _, ref := range campaign.MatrixRefs(cfg.Versions, exploits.Specs()) {
		e := entry(ref.Version, ref.UseCase, string(ref.Mode), 0)
		e.Seed = cfg.Seed
		s, err := exploits.SpecByName(ref.UseCase)
		if err != nil {
			t.Fatal(err)
		}
		e.SpecDigest = s.Digest()
		out = append(out, e)
	}
	return out
}

// TestMatrixRefsIsDispatchOrder pins the one matrix enumeration to the
// committed baseline record, whose settled entries are in dispatch
// order: the same 102 cells, in the same sequence.
func TestMatrixRefsIsDispatchOrder(t *testing.T) {
	base, err := ledger.LoadRecordFile(filepath.Join("..", "..", "LEDGER_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	refs := campaign.MatrixRefs(ledger.CurrentConfig(0, false).Versions, exploits.Specs())
	if len(refs) != 102 || len(base.Entries) != len(refs) {
		t.Fatalf("MatrixRefs lists %d cells, baseline record %d, want 102", len(refs), len(base.Entries))
	}
	for i, ref := range refs {
		e := base.Entries[i]
		if ref.Version != e.Version || ref.UseCase != e.Scenario || string(ref.Mode) != e.Mode {
			t.Errorf("cell %d: MatrixRefs %s/%s/%s, baseline %s/%s/%s",
				i, ref.Version, ref.UseCase, ref.Mode, e.Version, e.Scenario, e.Mode)
		}
	}
}

func TestPlanDelta(t *testing.T) {
	cfg := ledger.CurrentConfig(0, false)

	full := ledger.PlanDelta(nil, cfg)
	if len(full.Rerun) != full.Expected || len(full.Reused) != 0 || full.Expected == 0 {
		t.Fatalf("nil prior must plan a full rerun: %+v", full)
	}

	run := &ledger.Run{RunID: cfg.RunID(), Config: cfg, Cells: full.Expected}
	entries := liveEntries(t, cfg)
	if len(entries) != full.Expected {
		t.Fatalf("live registry built %d entries, expected %d", len(entries), full.Expected)
	}
	complete := ledger.Settle(run, entries)
	d := ledger.PlanDelta(complete, cfg)
	if len(d.Rerun) != 0 || len(d.Reused) != full.Expected || d.Stale != 0 {
		t.Errorf("complete prior must plan zero rerun: rerun=%d reused=%d stale=%d", len(d.Rerun), len(d.Reused), d.Stale)
	}

	partial := ledger.Settle(run, entries[:len(entries)-3])
	d = ledger.PlanDelta(partial, cfg)
	if len(d.Rerun) != 3 || len(d.Reused) != full.Expected-3 {
		t.Errorf("3 absent cells must plan 3 reruns: rerun=%d reused=%d", len(d.Rerun), len(d.Reused))
	}

	stale := liveEntries(t, cfg)
	stale[0].SpecDigest = "0000000000000000"
	d = ledger.PlanDelta(ledger.Settle(run, stale), cfg)
	if len(d.Rerun) != 1 || d.Stale != 1 {
		t.Errorf("a changed spec digest must invalidate exactly its cell: rerun=%d stale=%d", len(d.Rerun), d.Stale)
	}

	interrupted := liveEntries(t, cfg)
	interrupted[1].Verdict = nil
	interrupted[1].Error = &campaign.CellError{Cell: "x", Class: campaign.FailCanceled, Message: "interrupted"}
	d = ledger.PlanDelta(ledger.Settle(run, interrupted), cfg)
	if len(d.Rerun) != 1 || d.Stale != 0 {
		t.Errorf("a canceled cell must rerun as absent: rerun=%d stale=%d", len(d.Rerun), d.Stale)
	}
}

// diffFixtures builds a baseline record and a mutated candidate with
// one verdict flip, one lost coverage edge, and one span drift.
func diffFixtures(t *testing.T) (*ledger.Record, *ledger.Record) {
	t.Helper()
	cfg := testConfig()
	mk := func(mutate bool) *ledger.Record {
		a := entry("4.6", "XSA-212-crash", "exploit", 0)
		a.Coverage = &ledger.CoverageRecord{EdgeList: []coverage.Edge{
			{Family: "hypercall", Name: "mmu_update:ok", Count: 3},
			{Family: "pagetype", Name: "get:l1@general", Count: 1},
		}}
		a.SpanV = 5
		b := entry("4.6", "XSA-212-crash", "injection", 0)
		if mutate {
			a.Coverage.EdgeList = a.Coverage.EdgeList[:1]
			a.SpanV = 9
			b.Verdict.SecurityViolation = false
		}
		for _, e := range []*ledger.Entry{a, b} {
			if e.Coverage != nil {
				m := coverage.FromEdges(e.Coverage.EdgeList)
				e.Coverage.Digest, e.Coverage.Edges = m.Digest(), m.Len()
			}
		}
		run := &ledger.Run{RunID: cfg.RunID(), Config: cfg, Cells: 2}
		return ledger.Settle(run, []*ledger.Entry{a, b})
	}
	return mk(false), mk(true)
}

func TestDiffDetectsRegressions(t *testing.T) {
	base, cand := diffFixtures(t)

	clean := ledger.Diff(base, base)
	if !clean.Clean() || clean.Fatal() {
		t.Errorf("self-diff must be clean: %s", clean.Render())
	}
	if !strings.Contains(clean.Render(), "no differences") {
		t.Errorf("clean render missing marker:\n%s", clean.Render())
	}

	d := ledger.Diff(base, cand)
	if len(d.Flips) != 1 {
		t.Fatalf("got %d verdict flips, want 1:\n%s", len(d.Flips), d.Render())
	}
	if len(d.LostEdges) != 1 || d.LostEdges[0].Name != "get:l1@general" {
		t.Errorf("lost edges %+v, want exactly get:l1@general", d.LostEdges)
	}
	if len(d.SpanDrifts) != 1 || d.SpanDrifts[0].From != 5 || d.SpanDrifts[0].To != 9 {
		t.Errorf("span drifts %+v, want 5 -> 9", d.SpanDrifts)
	}
	if !d.Fatal() {
		t.Error("a verdict flip and a lost edge must be fatal")
	}
	out := d.Render()
	for _, want := range []string{"VERDICT FLIPS (1)", "LOST pagetype/get:l1@general", "SPAN MAKESPAN DRIFT (1)", "5 -> 9 virtual"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff render missing %q:\n%s", want, out)
		}
	}
	if got := ledger.Diff(base, cand).Render(); got != out {
		t.Error("diff render is not deterministic")
	}

	// Growth alone — new edges, new cells — must not be fatal.
	growth := ledger.Diff(cand, base)
	if len(growth.Flips) != 1 {
		t.Errorf("reverse diff still flips the verdict: %d", len(growth.Flips))
	}
	if len(growth.NewEdges) != 1 || len(growth.LostEdges) != 0 {
		t.Errorf("reverse diff edges: new=%d lost=%d, want 1/0", len(growth.NewEdges), len(growth.LostEdges))
	}

	// A baseline cell the candidate lost is fatal on its own; the same
	// cell appearing only in the candidate is growth.
	cfg := testConfig()
	dropped := ledger.Settle(&ledger.Run{RunID: cfg.RunID(), Config: cfg, Cells: 2}, base.Entries[:1])
	lost := ledger.Diff(base, dropped)
	if len(lost.OnlyA) != 1 || len(lost.Flips) != 0 || len(lost.LostEdges) != 0 {
		t.Fatalf("dropped-cell diff: onlyA=%d flips=%d lost=%d, want 1/0/0:\n%s",
			len(lost.OnlyA), len(lost.Flips), len(lost.LostEdges), lost.Render())
	}
	if !lost.Fatal() {
		t.Errorf("a baseline cell missing from the candidate must be fatal:\n%s", lost.Render())
	}
	if !strings.Contains(lost.Render(), "CELLS ONLY IN BASELINE (1)\n  4.6/XSA-212-crash/injection\n") {
		t.Errorf("dropped-cell render does not name the cell:\n%s", lost.Render())
	}
	if added := ledger.Diff(dropped, base); len(added.OnlyB) != 1 || added.Fatal() {
		t.Errorf("a cell only the candidate has must not be fatal: onlyB=%d fatal=%v", len(added.OnlyB), added.Fatal())
	}
}

// TestInMemoryWriterSettlesLikeStore imports the committed baseline's
// entries into an in-memory writer and a store-backed one: both settle
// the baseline's record, and only the store-backed one writes files.
func TestInMemoryWriterSettlesLikeStore(t *testing.T) {
	base, err := ledger.LoadRecordFile("../../LEDGER_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	store, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	disk, err := store.NewWriter(base.Config, base.Cells)
	if err != nil {
		t.Fatal(err)
	}
	mem := ledger.NewWriter(base.Config, base.Cells)
	for _, w := range []*ledger.Writer{mem, disk} {
		w.Import(base.Entries)
		rec, err := w.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Digest != base.Digest || rec.Completed != base.Completed {
			t.Errorf("writer in %q settled %d cells, digest %s; want %d, %s",
				w.Dir(), rec.Completed, rec.Digest, base.Completed, base.Digest)
		}
	}
	if mem.Dir() != "" {
		t.Errorf("in-memory writer has record directory %q", mem.Dir())
	}
	if _, err := os.Stat(filepath.Join(disk.Dir(), "record.json")); err != nil {
		t.Errorf("store-backed writer wrote no record.json: %v", err)
	}
}
