package campaign_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/exploits"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/tracediff"
)

// seedNames are the four paper scenarios the pre-expansion corpus
// consisted of, in registry order. The artifacts under testdata/seed
// were produced by running exactly these through the engine before the
// registry grew; the tests below re-derive them from today's registry
// and demand byte identity — corpus growth must not perturb a single
// byte of the original cells' output.
var seedNames = []string{"XSA-212-crash", "XSA-212-priv", "XSA-148-priv", "XSA-182-test"}

func seedSpecs(t *testing.T) []exploits.Spec {
	t.Helper()
	specs := make([]exploits.Spec, 0, len(seedNames))
	for _, name := range seedNames {
		s, err := exploits.SpecByName(name)
		if err != nil {
			t.Fatalf("seed scenario %s missing from registry: %v", name, err)
		}
		specs = append(specs, s)
	}
	return specs
}

func seedFile(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "seed", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSeedMatrixByteIdentical diffs the rendered matrix of the original
// twelve cells against the frozen seed artifact.
func TestSeedMatrixByteIdentical(t *testing.T) {
	entries := runSpecs(t, &campaign.Runner{Workers: 1}, seedSpecs(t))
	if got, want := report.Matrix(entries), seedFile(t, "matrix.txt"); got != want {
		t.Errorf("seed matrix drifted from the frozen artifact:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestSeedEquivalenceByteIdentical diffs the rendered RQ2 equivalence
// table of the original cells against the frozen seed artifact.
func TestSeedEquivalenceByteIdentical(t *testing.T) {
	entries := runSpecs(t, &campaign.Runner{Workers: 4, Telemetry: telemetry.NewRegistry()}, seedSpecs(t))
	verdicts, err := tracediff.MatrixEquivalence(entries)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := report.TraceEquivalence(verdicts), seedFile(t, "equivalence.txt"); got != want {
		t.Errorf("seed equivalence table drifted from the frozen artifact:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestSeedExportByteIdentical diffs the JSON campaign artifact of the
// original cells — transcripts, evidence and benchmark scores included —
// against the frozen seed artifact.
func TestSeedExportByteIdentical(t *testing.T) {
	got := string(exportMatrix(t, &campaign.Runner{Workers: 1}, seedSpecs(t)))
	if want := seedFile(t, "matrix.json"); got != want {
		t.Errorf("seed JSON artifact drifted from the frozen artifact (got %d bytes, want %d)", len(got), len(want))
	}
}
