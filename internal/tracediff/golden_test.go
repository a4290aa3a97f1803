package tracediff

import (
	"context"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// runProfiledMatrix runs the full default matrix with telemetry, so
// every entry carries its recorded events.
func runProfiledMatrix(t *testing.T) []campaign.MatrixEntry {
	t.Helper()
	r := &campaign.Runner{Workers: 4, Telemetry: telemetry.NewRegistry()}
	entries, err := r.RunMatrixContext(context.Background())
	if err != nil {
		t.Fatalf("RunMatrixContext: %v", err)
	}
	return entries
}

// TestPerturbedTraceDiverges injects a single extra event into one
// cell's recorded stream and demands the diff reports it as divergent
// with the perturbation as the first-divergence evidence.
func TestPerturbedTraceDiverges(t *testing.T) {
	entries := runProfiledMatrix(t)
	var exp, inj *campaign.MatrixEntry
	for i := range entries {
		e := &entries[i]
		if e.Version == "4.6" && e.UseCase == "XSA-182-test" {
			switch e.Mode {
			case campaign.ModeExploit:
				exp = e
			case campaign.ModeInjection:
				inj = e
			}
		}
	}
	if exp == nil || inj == nil {
		t.Fatal("matrix missing the 4.6/XSA-182-test pair")
	}

	c := NewCanonicalizer("4.6", campaign.MachineFrames)
	base := c.Events(exp.Result.Profile.Events)

	// Perturb: duplicate one scenario step mid-stream in the injection
	// side — a single injected effect event.
	perturbed := make([]telemetry.Event, 0, len(inj.Result.Profile.Events)+1)
	idx := -1
	for i, e := range inj.Result.Profile.Events {
		perturbed = append(perturbed, e)
		if idx < 0 && e.Kind == telemetry.KindScenarioStep {
			perturbed = append(perturbed, telemetry.Event{
				Kind: telemetry.KindScenarioStep, Label: e.Label, Detail: "PERTURBED: injected event",
			})
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("injection stream has no scenario steps to perturb")
	}
	tier, div := Compare(base, c.Events(perturbed))
	if tier != TierDivergent {
		t.Fatalf("perturbed stream graded %s, want %s", tier, TierDivergent)
	}
	if div == nil {
		t.Fatal("divergent verdict carries no divergence evidence")
	}
	// The unperturbed pair is equivalent, so the first effect
	// divergence must be exactly the injected event.
	if want := "PERTURBED: injected event"; !strings.Contains(div.B, want) {
		t.Errorf("divergence evidence B = %q, want it to carry %q (divergence %+v)", div.B, want, div)
	}
}
