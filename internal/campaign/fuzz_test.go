package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hv"
)

const fuzzTrials = 40

// TestRandomInjectionCampaignIsDeterministic: one seed gives one
// distribution on every run and on both boot paths. It runs 500 trials
// per version, as `repro -fuzz 500` does: the page-table trials pick a
// frame by seed, so an unordered candidate list shows up as a few
// trials moving between classes from run to run.
func TestRandomInjectionCampaignIsDeterministic(t *testing.T) {
	const trials = 500
	for _, v := range hv.Versions() {
		t.Run(v.Name, func(t *testing.T) {
			want, err := RandomInjectionCampaign(v, trials, 7)
			if err != nil {
				t.Fatal(err)
			}
			if want.Total() != trials {
				t.Fatalf("total = %d, want %d", want.Total(), trials)
			}
			for _, snapshots := range []bool{true, true, false} {
				EnableSnapshots(snapshots)
				got, err := RandomInjectionCampaign(v, trials, 7)
				EnableSnapshots(true)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("snapshots=%v: %v, first run %v", snapshots, got, want)
				}
			}
		})
	}
}

func TestRandomInjectionCampaignInducesStates(t *testing.T) {
	// Injection reaches erroneous states on every version, including the
	// hardened one — that is the whole point of the technique.
	for _, v := range []hv.Version{hv.Version46(), hv.Version413()} {
		t.Run(v.Name, func(t *testing.T) {
			dist, err := RandomInjectionCampaign(v, fuzzTrials, 42)
			if err != nil {
				t.Fatal(err)
			}
			if got := dist.ErroneousStates(); got == 0 {
				t.Errorf("no erroneous states in %d trials: %v", fuzzTrials, dist)
			}
			// Every injector write is accepted: nothing is "rejected" at
			// the injection interface.
			if dist[ClassRejected] != 0 {
				t.Errorf("injector rejected inputs: %v", dist)
			}
		})
	}
}

func TestHypercallFuzzBaselineCannotReachStatesOnFixedVersions(t *testing.T) {
	dist, err := HypercallFuzzCampaign(hv.Version413(), 300, 42)
	if err != nil {
		t.Fatal(err)
	}
	if dist[ClassCrash] != 0 {
		t.Errorf("baseline crashed a fixed hypervisor: %v", dist)
	}
	if dist[ClassStateInduced] != 0 {
		t.Errorf("baseline induced erroneous states through legitimate interfaces: %v", dist)
	}
	// The interface must have rejected the bulk of malformed input.
	if dist[ClassRejected] == 0 {
		t.Errorf("baseline never rejected: %v", dist)
	}
}

func TestCompareWithBaselineQuantifiesTheGap(t *testing.T) {
	cmp, err := CompareWithBaseline(hv.Version413(), fuzzTrials, 99)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Version != "4.13" || cmp.Trials != fuzzTrials {
		t.Errorf("metadata = %+v", cmp)
	}
	inj := cmp.Injection.ErroneousStates()
	base := cmp.Baseline.ErroneousStates()
	if inj <= base {
		t.Errorf("injection (%d states) does not beat the baseline (%d states)", inj, base)
	}
}

// TestErroneousStatesCountsHandledOopses pins the Table III semantics
// of the accounting: a handled oops presupposes an induced erroneous
// state, so it counts toward ErroneousStates alongside state-induced,
// crash and hang trials — and nothing else does. The sum used to omit
// ClassHandledOops, undercounting induced states on versions that cope.
func TestErroneousStatesCountsHandledOopses(t *testing.T) {
	d := Distribution{
		ClassRejected:     100,
		ClassAccepted:     10,
		ClassStateInduced: 7,
		ClassHandledOops:  5,
		ClassCrash:        3,
		ClassHang:         2,
	}
	if got, want := d.ErroneousStates(), 7+5+3+2; got != want {
		t.Errorf("ErroneousStates() = %d, want %d (state-induced + handled-oops + crash + hang)", got, want)
	}
	if got, want := d.Total(), 127; got != want {
		t.Errorf("Total() = %d, want %d", got, want)
	}
}

func TestCampaignRejectsBadTrialCounts(t *testing.T) {
	if _, err := RandomInjectionCampaign(hv.Version46(), 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := HypercallFuzzCampaign(hv.Version46(), -3, 1); err == nil {
		t.Error("negative trials accepted")
	}
}

func TestOutcomeClassStrings(t *testing.T) {
	for _, c := range []OutcomeClass{ClassRejected, ClassAccepted, ClassStateInduced, ClassHandledOops, ClassCrash, ClassHang} {
		if strings.HasPrefix(c.String(), "OutcomeClass(") {
			t.Errorf("class %d has no name", c)
		}
	}
	if !strings.HasPrefix(OutcomeClass(99).String(), "OutcomeClass(") {
		t.Error("unknown class string")
	}
}

func TestExportMatrixProducesValidArtifact(t *testing.T) {
	entries, err := (&Runner{Workers: 1}).RunMatrixContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteExport(&buf, entries, 0, false); err != nil {
		t.Fatal(err)
	}
	var artifact ExportedCampaign
	if err := json.Unmarshal(buf.Bytes(), &artifact); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(artifact.Runs) != 102 {
		t.Errorf("runs = %d, want 102", len(artifact.Runs))
	}
	if len(artifact.Scores) != 3 {
		t.Errorf("scores = %d, want 3", len(artifact.Scores))
	}
	if !strings.Contains(artifact.Paper, "Intrusion Injection") {
		t.Errorf("paper = %q", artifact.Paper)
	}
	// Spot-check one known cell survives the round trip.
	found := false
	for _, r := range artifact.Runs {
		if r.Version == "4.13" && r.UseCase == "XSA-182-test" && r.Mode == "injection" {
			found = true
			if !r.ErroneousState || r.SecurityViolation || !r.Handled {
				t.Errorf("cell = %+v", r)
			}
			if len(r.Transcript) == 0 {
				t.Error("transcript missing")
			}
		}
	}
	if !found {
		t.Error("expected cell absent from artifact")
	}
	// The score JSON carries the derived resilience (3/17 on 4.13).
	if !strings.Contains(buf.String(), `"resilience": 0.17647058823529413`) {
		t.Error("resilience not exported")
	}
}
