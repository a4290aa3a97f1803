package report

import (
	"context"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fieldstudy"
	"repro/internal/hv"
	"repro/internal/inject"
)

func TestTableIRendering(t *testing.T) {
	table := fieldstudy.Classify(fieldstudy.Dataset())
	s := TableI(table)
	for _, want := range []string{
		"TABLE I",
		"Memory Access – 35 CVEs",
		"Memory Management – 40 CVEs",
		"Exceptional Conditions – 11 CVEs",
		"Non-Memory Related – 22 CVEs",
		"Keep Page Access",
		"11",
		"Induce a Hang State",
		"20",
		"synthesized",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I missing %q:\n%s", want, s)
		}
	}
}

func TestTableIIRendering(t *testing.T) {
	s := TableII(inject.UseCaseModels())
	for _, want := range []string{
		"XSA-212-crash    Write Arbitrary Memory",
		"XSA-212-priv     Write Arbitrary Memory",
		"XSA-148-priv     Write Page Table Entries",
		"XSA-182-test     Write Page Table Entries",
		"unprivileged guest",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Table II missing %q:\n%s", want, s)
		}
	}
}

func TestTableIIIRendering(t *testing.T) {
	rows := []campaign.Table3Row{
		{UseCase: "XSA-212-priv", Cells: map[string]campaign.Table3Cell{
			"4.8":  {ErrState: true, SecViol: true},
			"4.13": {ErrState: true, SecViol: false},
		}},
		{UseCase: "XSA-000-none", Cells: map[string]campaign.Table3Cell{
			"4.8":  {ErrState: false, SecViol: false},
			"4.13": {ErrState: false, SecViol: false},
		}},
	}
	s := TableIII(rows, []string{"4.8", "4.13"})
	if !strings.Contains(s, "✓") {
		t.Error("no checkmarks rendered")
	}
	if !strings.Contains(s, "\U0001F6E1") {
		t.Error("no shield rendered for the handled state")
	}
	if !strings.Contains(s, "XSA-212-priv") {
		t.Errorf("row missing:\n%s", s)
	}
}

func TestFig1AndFig2AreConceptDiagrams(t *testing.T) {
	f1 := Fig1()
	for _, want := range []string{"attack", "vulnerability", "intrusion", "erroneous state", "security"} {
		if !strings.Contains(f1, want) {
			t.Errorf("Fig1 missing %q", want)
		}
	}
	f2 := Fig2()
	for _, want := range []string{"intrusion model", "injector", "erroneous state", "monitoring"} {
		if !strings.Contains(f2, want) {
			t.Errorf("Fig2 missing %q", want)
		}
	}
}

func TestFig3ExecutesEquivalenceCheck(t *testing.T) {
	s := Fig3(inject.GuestWritablePageTableEntry)
	for _, want := range []string{
		"internal view",
		"abstract view",
		"vulnerability activation",
		"Guest-Writable Page Table Entry",
		"equivalence (both reach the erroneous state): true",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig3 missing %q:\n%s", want, s)
		}
	}
}

func TestFig4Rendering(t *testing.T) {
	rows, err := (&campaign.Runner{Workers: 1}).RunFig4Context(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := Fig4(rows)
	if strings.Contains(s, "DIFFER") {
		t.Errorf("Fig4 shows a mismatch:\n%s", s)
	}
	for _, want := range []string{"XSA-212-crash", "XSA-148-priv", "match"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig4 missing %q:\n%s", want, s)
		}
	}
}

func TestMatrixRendering(t *testing.T) {
	res, err := (&campaign.Runner{Workers: 1}).RunContext(context.Background(), hv.Version48(), "XSA-212-crash", campaign.ModeExploit)
	if err != nil {
		t.Fatal(err)
	}
	s := Matrix([]campaign.MatrixEntry{{
		Version: "4.8", UseCase: "XSA-212-crash", Mode: campaign.ModeExploit, Result: res,
	}})
	if !strings.Contains(s, "PoC failed") {
		t.Errorf("matrix does not note the failed PoC:\n%s", s)
	}
}

func TestTranscriptRendering(t *testing.T) {
	res, err := (&campaign.Runner{Workers: 1}).RunContext(context.Background(), hv.Version46(), "XSA-212-crash", campaign.ModeExploit)
	if err != nil {
		t.Fatal(err)
	}
	// The console tail comes from the cell's own run: the crash PoC
	// leaves the panic banner on it.
	s := Transcript(res)
	for _, want := range []string{"attacker terminal", "hypervisor console", "monitor verdict", "Panic on CPU 0"} {
		if !strings.Contains(s, want) {
			t.Errorf("transcript missing %q:\n%s", want, s)
		}
	}
}

func TestBaselineComparisonRendering(t *testing.T) {
	cmp, err := campaign.CompareWithBaseline(hv.Version413(), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := BaselineComparison(cmp)
	for _, want := range []string{"RANDOMIZED CAMPAIGNS", "intrusion injection:", "hypercall baseline:", "erroneous states reached"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q:\n%s", want, s)
		}
	}
}

func TestScoreboardRendering(t *testing.T) {
	scores := []campaign.Score{
		{Version: "4.6", StatesInjected: 4, Violations: 4},
		{Version: "4.13", StatesInjected: 4, Violations: 2, Handled: 2},
	}
	s := Scoreboard(scores)
	for _, want := range []string{"SECURITY BENCHMARK", "Xen 4.6", "Xen 4.13", "0.50", "largest share"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q:\n%s", want, s)
		}
	}
}
