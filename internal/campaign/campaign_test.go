package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/hv"
)

// expectation is the paper's reported result for one cell.
type expectation struct {
	errState bool
	secViol  bool
}

// Shorthand cell outcomes for the ground-truth table.
var (
	full    = map[Mode]expectation{ModeExploit: {true, true}, ModeInjection: {true, true}}    // exploit and injection both violate
	fixed   = map[Mode]expectation{ModeExploit: {false, false}, ModeInjection: {true, true}}  // PoC blocked, injection violates
	shield  = map[Mode]expectation{ModeExploit: {false, false}, ModeInjection: {true, false}} // PoC blocked, injected state handled
	latent  = map[Mode]expectation{ModeExploit: {true, false}, ModeInjection: {true, false}}  // state induced, never felt (handled)
	blocked = map[Mode]expectation{ModeExploit: {false, false}, ModeInjection: {true, false}} // PoC blocked, injected state handled
)

// paperResults is the ground truth. The four paper scenarios reproduce
// Sections VI-VIII: the exploit column reproduces "we were able to
// exploit ... in 4.6" and "we were not able to execute any of the
// exploits in versions 4.8 and 4.13"; the injection column reproduces
// Table III plus the 4.6 baseline. The corpus-extension scenarios pin
// the same shape for their families: memory-corruption triggers
// (XSA-387 grant downgrade, MX memory_exchange writes) are blocked on
// the fixed releases, while event-channel and domctl abuse goes through
// the legitimate interface and lands on every version.
var paperResults = map[string]map[string]map[Mode]expectation{
	"4.6": {
		"XSA-212-crash": full, "XSA-212-priv": full, "XSA-148-priv": full, "XSA-182-test": full,
		"XSA-387-leak": full, "XSA-387-x2": full, "XSA-387-x3": full,
		"EVT-flood-64": full, "EVT-flood-512": full, "EVT-flood-dom0": full,
		"DOMCTL-pause": full, "DOMCTL-pauseall": full, "DOMCTL-zombie": full, "DOMCTL-exfil": full,
		"MX-heap-smash": full, "MX-heap-wide": full, "MX-idt-gp": latent,
	},
	"4.8": {
		"XSA-212-crash": fixed, "XSA-212-priv": fixed, "XSA-148-priv": fixed, "XSA-182-test": fixed,
		"XSA-387-leak": fixed, "XSA-387-x2": fixed, "XSA-387-x3": fixed,
		"EVT-flood-64": full, "EVT-flood-512": full, "EVT-flood-dom0": full,
		"DOMCTL-pause": full, "DOMCTL-pauseall": full, "DOMCTL-zombie": full, "DOMCTL-exfil": full,
		"MX-heap-smash": fixed, "MX-heap-wide": fixed, "MX-idt-gp": blocked,
	},
	"4.13": {
		"XSA-212-crash": fixed, "XSA-212-priv": shield, "XSA-148-priv": fixed, "XSA-182-test": shield,
		"XSA-387-leak": fixed, "XSA-387-x2": fixed, "XSA-387-x3": fixed,
		"EVT-flood-64": full, "EVT-flood-512": full, "EVT-flood-dom0": full,
		"DOMCTL-pause": full, "DOMCTL-pauseall": full, "DOMCTL-zombie": full, "DOMCTL-exfil": full,
		"MX-heap-smash": fixed, "MX-heap-wide": fixed, "MX-idt-gp": blocked,
	},
}

// serialMatrix runs the full matrix serially; the experiment tests
// below read their projections from it, as the CLI does.
func serialMatrix(t *testing.T) []MatrixEntry {
	t.Helper()
	entries, err := (&Runner{Workers: 1}).RunMatrixContext(context.Background())
	if err != nil {
		t.Fatalf("RunMatrixContext: %v", err)
	}
	return entries
}

// TestFullMatrixMatchesPaper is the headline integration test: all 102
// (version, use case, mode) cells produce the expected results — the
// paper's reported numbers for the original scenarios, the pinned
// family shapes for the corpus extensions.
func TestFullMatrixMatchesPaper(t *testing.T) {
	entries := serialMatrix(t)
	if len(entries) != 102 {
		t.Fatalf("matrix has %d entries, want 102", len(entries))
	}
	for _, e := range entries {
		want := paperResults[e.Version][e.UseCase][e.Mode]
		v := e.Result.Verdict
		if v.ErroneousState != want.errState || v.SecurityViolation != want.secViol {
			t.Errorf("%s %s %s: got err-state=%v violation=%v, paper reports %v/%v\nlog:\n  %s\nevidence:\n  %s",
				e.Version, e.UseCase, e.Mode,
				v.ErroneousState, v.SecurityViolation, want.errState, want.secViol,
				strings.Join(e.Result.Outcome.Log, "\n  "),
				strings.Join(v.Evidence, "\n  "))
		}
	}
}

// TestFig4Equivalence asserts RQ1: on 4.6 the injected states and the
// resulting violations are the same as the exploits'.
func TestFig4Equivalence(t *testing.T) {
	rows, err := Fig4Rows(serialMatrix(t))
	if err != nil {
		t.Fatalf("Fig4Rows: %v", err)
	}
	if len(rows) != 17 {
		t.Fatalf("fig4 rows = %d, want 17", len(rows))
	}
	for _, r := range rows {
		if !r.StatesMatch || !r.ViolationsMatch {
			t.Errorf("%s: states-match=%v violations-match=%v\nexploit: %v\ninjection: %v",
				r.UseCase, r.StatesMatch, r.ViolationsMatch,
				r.Exploit.Verdict, r.Injection.Verdict)
		}
		if !r.Exploit.Verdict.ErroneousState {
			t.Errorf("%s: exploit on 4.6 induced no state: %v", r.UseCase, r.Exploit.Verdict)
		}
		if !r.Exploit.Verdict.SecurityViolation && !r.Exploit.Verdict.Handled {
			t.Errorf("%s: exploit on 4.6 neither violated nor was handled: %v", r.UseCase, r.Exploit.Verdict)
		}
	}
}

// TestTable3 asserts the published Table III shape: every injected state
// lands on both versions; 4.13 handles XSA-212-priv and XSA-182-test.
func TestTable3(t *testing.T) {
	rows, err := Table3Rows(serialMatrix(t))
	if err != nil {
		t.Fatalf("Table3Rows: %v", err)
	}
	want := map[string]map[string]Table3Cell{
		"XSA-212-crash": {"4.8": {true, true}, "4.13": {true, true}},
		"XSA-212-priv":  {"4.8": {true, true}, "4.13": {true, false}},
		"XSA-148-priv":  {"4.8": {true, true}, "4.13": {true, true}},
		"XSA-182-test":  {"4.8": {true, true}, "4.13": {true, false}},
	}
	// Corpus extensions: every injected state lands on both fixed
	// versions; only the never-dispatched IDT corruption is handled.
	for _, name := range []string{
		"XSA-387-leak", "XSA-387-x2", "XSA-387-x3",
		"EVT-flood-64", "EVT-flood-512", "EVT-flood-dom0",
		"DOMCTL-pause", "DOMCTL-pauseall", "DOMCTL-zombie", "DOMCTL-exfil",
		"MX-heap-smash", "MX-heap-wide",
	} {
		want[name] = map[string]Table3Cell{"4.8": {true, true}, "4.13": {true, true}}
	}
	want["MX-idt-gp"] = map[string]Table3Cell{"4.8": {true, false}, "4.13": {true, false}}
	if len(rows) != 17 {
		t.Fatalf("table III rows = %d, want 17", len(rows))
	}
	for _, r := range rows {
		for version, cell := range r.Cells {
			if cell != want[r.UseCase][version] {
				t.Errorf("Table III %s on %s = %+v, paper reports %+v",
					r.UseCase, version, cell, want[r.UseCase][version])
			}
		}
	}
}

// TestEnvironmentShape verifies the standard experimental setup.
func TestEnvironmentShape(t *testing.T) {
	e, err := NewEnvironment(hv.Version46(), ModeInjection)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Guests) != 4 {
		t.Errorf("guests = %d, want 4 (dom0 + 3)", len(e.Guests))
	}
	if !e.Guests[0].Domain().Privileged() {
		t.Error("first guest is not dom0")
	}
	if e.Attacker.Hostname() != "guest03" || e.Attacker.Addr() != AttackerIP {
		t.Errorf("attacker = %s@%s", e.Attacker.Hostname(), e.Attacker.Addr())
	}
	if e.Injector == nil {
		t.Error("injection-mode environment lacks an injector client")
	}
	ex, err := NewEnvironment(hv.Version46(), ModeExploit)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Injector != nil {
		t.Error("exploit-mode environment has an injector")
	}
	if _, err := ex.ScenarioEnv(ModeInjection); err == nil {
		t.Error("injection scenario on exploit build succeeded")
	}
	if _, err := ex.ScenarioEnv("bogus"); err == nil {
		t.Error("bogus mode accepted")
	}
}

// TestRunUnknownUseCase covers the error path.
func TestRunUnknownUseCase(t *testing.T) {
	if _, err := (&Runner{Workers: 1}).RunContext(context.Background(), hv.Version46(), "XSA-000", ModeExploit); err == nil {
		t.Error("unknown use case accepted")
	}
}

// TestInjectorAbsentOnExploitBuilds asserts that the arbitrary_access
// hypercall is genuinely absent unless compiled in — the injector is a
// build-time addition, not a latent capability.
func TestInjectorAbsentOnExploitBuilds(t *testing.T) {
	e, err := NewEnvironment(hv.Version46(), ModeExploit)
	if err != nil {
		t.Fatal(err)
	}
	err = e.Attacker.Domain().Hypercall(hv.HypercallArbitraryAccess, nil)
	if err == nil || !strings.Contains(err.Error(), "ENOSYS") {
		t.Errorf("arbitrary_access on exploit build: err = %v, want -ENOSYS", err)
	}
}

// TestSecurityBenchmark asserts the aggregate ranking over the full
// corpus: every version handles the latent IDT corruption, 4.13
// additionally handles XSA-212-priv and XSA-182-test (resilience 3/17);
// all injections succeed everywhere.
func TestSecurityBenchmark(t *testing.T) {
	scores, err := Scores(serialMatrix(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 {
		t.Fatalf("scores = %d", len(scores))
	}
	want := map[string]struct {
		handled    int
		resilience float64
	}{
		"4.6":  {1, 1.0 / 17},
		"4.8":  {1, 1.0 / 17},
		"4.13": {3, 3.0 / 17},
	}
	for _, s := range scores {
		if s.FailedInjections != 0 {
			t.Errorf("%s: %d failed injections", s.Version, s.FailedInjections)
		}
		if s.StatesInjected != 17 {
			t.Errorf("%s: states = %d, want 17", s.Version, s.StatesInjected)
		}
		w := want[s.Version]
		if s.Handled != w.handled || s.Resilience() != w.resilience {
			t.Errorf("%s: handled=%d resilience=%.2f, want %d/%.2f",
				s.Version, s.Handled, s.Resilience(), w.handled, w.resilience)
		}
		if s.Violations+s.Handled != s.StatesInjected {
			t.Errorf("%s: counts do not add up: %+v", s.Version, s)
		}
	}
}

// TestProjectionsFailOnFailedEntry pins the ContinueOnError contract of
// the projections: each fails on the first failed entry it needs, with
// its experiment's wrap, ignores failures it does not read, and the
// JSON export keeps every run but omits the scores.
func TestProjectionsFailOnFailedEntry(t *testing.T) {
	entries := serialMatrix(t)
	for i, e := range entries {
		if e.Version == "4.8" && e.UseCase == "XSA-148-priv" && e.Mode == ModeInjection {
			entries[i].Result = nil
			entries[i].Err = &CellError{Cell: "4.8/XSA-148-priv/injection", Class: FailPanic, Message: "boom"}
		}
	}
	if _, err := Fig4Rows(entries); err != nil {
		t.Errorf("Fig4Rows read a 4.8 cell: %v", err)
	}
	if _, err := Table3Rows(entries); err == nil || err.Error() != "campaign: table3 XSA-148-priv on 4.8: panic: boom" {
		t.Errorf("Table3Rows error = %v", err)
	}
	if _, err := Scores(entries); err == nil || err.Error() != "campaign: benchmark XSA-148-priv on 4.8: panic: boom" {
		t.Errorf("Scores error = %v", err)
	}
	var buf bytes.Buffer
	if err := WriteExport(&buf, entries, 0, true); err != nil {
		t.Fatal(err)
	}
	var artifact ExportedCampaign
	if err := json.Unmarshal(buf.Bytes(), &artifact); err != nil {
		t.Fatal(err)
	}
	if len(artifact.Runs) != len(entries) || artifact.Scores != nil {
		t.Errorf("export has %d runs (want %d) and scores %v (want none)", len(artifact.Runs), len(entries), artifact.Scores)
	}
}

// TestScoreZeroValue covers the empty-score edge.
func TestScoreZeroValue(t *testing.T) {
	var s Score
	if s.Resilience() != 0 {
		t.Errorf("zero score resilience = %f", s.Resilience())
	}
	if !strings.Contains(s.String(), "resilience=0.00") {
		t.Errorf("String = %q", s.String())
	}
}
