package tracediff_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/ledger"
	"repro/internal/tracediff"
)

// gradeRecordedMatrix runs the full default matrix into an in-memory
// run record and grades RQ2 from it, the way repro -equivalence does.
func gradeRecordedMatrix(t *testing.T) []tracediff.CellVerdict {
	t.Helper()
	cfg := ledger.CurrentConfig(0, false)
	w := ledger.NewWriter(cfg, ledger.PlanDelta(nil, cfg).Expected)
	r := &campaign.Runner{Workers: 4, Observer: w}
	if _, err := r.RunMatrixContext(context.Background()); err != nil {
		t.Fatalf("RunMatrixContext: %v", err)
	}
	verdicts, err := ledger.Equivalence(w.Snapshot())
	if err != nil {
		t.Fatalf("ledger.Equivalence: %v", err)
	}
	return verdicts
}

// TestMatrixEquivalenceGolden pins the trace-equivalence verdict of
// every default-matrix cell: the RQ2 claim at event granularity. The
// six cells pinned in detail are the same six the monitor evidence
// goldens cover (the four violated 4.6 cells and the two handled 4.13
// cells).
func TestMatrixEquivalenceGolden(t *testing.T) {
	verdicts := gradeRecordedMatrix(t)
	if len(verdicts) != 51 {
		t.Fatalf("got %d cell verdicts, want 51", len(verdicts))
	}
	for _, cv := range verdicts {
		if !cv.Equivalent() {
			t.Errorf("%s on %s: tier %s (basis %s), divergence %+v — every default-matrix cell must be equivalent",
				cv.UseCase, cv.Version, cv.Tier, cv.Basis, cv.Divergence)
		}
	}

	// The six monitor-golden cells, pinned in full.
	type pin struct {
		tier       tracediff.Tier
		basis      tracediff.Basis
		refVersion string
	}
	want := map[string]pin{
		"4.6/XSA-212-crash": {tracediff.TierEquivalent, tracediff.BasisExploit, ""},
		"4.6/XSA-212-priv":  {tracediff.TierEquivalent, tracediff.BasisExploit, ""},
		"4.6/XSA-148-priv":  {tracediff.TierEquivalent, tracediff.BasisExploit, ""},
		"4.6/XSA-182-test":  {tracediff.TierEquivalent, tracediff.BasisExploit, ""},
		// The hardened 4.13 handles these two injected states (Table
		// III shield cells): the comparison narrows to the monitor's
		// erroneous-state audit against the 4.6 reference exploit.
		"4.13/XSA-212-priv": {tracediff.TierEquivalent, tracediff.BasisStateAudit, "4.6"},
		"4.13/XSA-182-test": {tracediff.TierEquivalent, tracediff.BasisStateAudit, "4.6"},
	}
	seen := make(map[string]tracediff.CellVerdict)
	for _, cv := range verdicts {
		seen[cv.Version+"/"+cv.UseCase] = cv
	}
	for cell, w := range want {
		cv, ok := seen[cell]
		if !ok {
			t.Errorf("%s: no verdict produced", cell)
			continue
		}
		if cv.Tier != w.tier || cv.Basis != w.basis || cv.RefVersion != w.refVersion {
			t.Errorf("%s: got tier=%s basis=%s ref=%q, want tier=%s basis=%s ref=%q",
				cell, cv.Tier, cv.Basis, cv.RefVersion, w.tier, w.basis, w.refVersion)
		}
		if cv.BaseEvents == 0 || cv.InjectionEvents == 0 {
			t.Errorf("%s: empty compared streams (base=%d injection=%d)", cell, cv.BaseEvents, cv.InjectionEvents)
		}
	}

	// Basis selection across the corpus: a cell whose exploit landed on
	// the same version compares in-version (tracediff.BasisExploit) — all of 4.6,
	// plus the event-channel and domctl families whose trigger is the
	// legitimate interface on every version. Blocked PoCs (the
	// memory-corruption triggers on the fixed releases) fall back to the
	// 4.6 reference exploit; the two handled 4.13 paper cells narrow to
	// the erroneous-state audit.
	wantBasis := func(cv tracediff.CellVerdict) (tracediff.Basis, string) {
		switch {
		case cv.Version == "4.6":
			return tracediff.BasisExploit, ""
		case strings.HasPrefix(cv.UseCase, "EVT-") || strings.HasPrefix(cv.UseCase, "DOMCTL-"):
			return tracediff.BasisExploit, ""
		case cv.Version == "4.13" && (cv.UseCase == "XSA-212-priv" || cv.UseCase == "XSA-182-test"):
			return tracediff.BasisStateAudit, "4.6"
		default:
			return tracediff.BasisReference, "4.6"
		}
	}
	for _, cv := range verdicts {
		b, ref := wantBasis(cv)
		if cv.Basis != b || cv.RefVersion != ref {
			t.Errorf("%s/%s: got basis=%s ref=%q, want basis=%s ref=%q",
				cv.Version, cv.UseCase, cv.Basis, cv.RefVersion, b, ref)
		}
	}
}
