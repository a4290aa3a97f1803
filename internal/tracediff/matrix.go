package tracediff

import (
	"fmt"

	"repro/internal/campaign"
)

// The RQ2 pairing. For every (scenario, version) cell the engine picks
// the strongest comparison the matrix supports:
//
//   - On a version where the exploit still induces the state, the
//     exploit run itself is the basis: its effect stream must equal the
//     injection run's (same version, different mechanism).
//   - On a fixed version the exploit is blocked — its trace ends at the
//     validation reject, so it cannot attest what the injected state
//     should look like. The basis is then the *reference* exploit: the
//     earliest version whose exploit induced the state (4.6 in the
//     paper's matrix). When the injection's security outcome matches
//     the reference's, the full effect streams are compared across
//     versions (canonicalization masks the version banners).
//   - When the outcomes differ — the hardened version *handled* the
//     injected state, the shield cells of Table III — the consequence
//     phases legitimately diverge, and the comparison narrows to the
//     monitor's marked erroneous-state audit: the injected state must
//     still look exactly like the exploit-induced one, even though the
//     system's reaction differs. That narrowing is the paper's RQ2
//     reading for handled cells: equivalence of the *state*, not of
//     the consequences the hardening suppressed.
type Basis string

// Comparison bases.
const (
	// BasisExploit compares against the same version's exploit run.
	BasisExploit Basis = "exploit@version"
	// BasisReference compares against the reference version's exploit
	// run (full effect streams, cross-version).
	BasisReference Basis = "reference-exploit"
	// BasisStateAudit compares only the marked erroneous-state audit
	// against the reference exploit's.
	BasisStateAudit Basis = "state-audit"
)

// CellVerdict is one (scenario, version) cell's trace-equivalence
// result.
type CellVerdict struct {
	// UseCase and Version identify the cell.
	UseCase string `json:"use_case"`
	Version string `json:"version"`
	// Tier is the verdict.
	Tier Tier `json:"tier"`
	// Basis says which comparison produced it.
	Basis Basis `json:"basis"`
	// RefVersion is the reference exploit's version when the basis is
	// cross-version.
	RefVersion string `json:"ref_version,omitempty"`
	// BaseEvents and InjectionEvents are the compared stream lengths
	// (effect events, or marked audit events under BasisStateAudit).
	BaseEvents      int `json:"base_events"`
	InjectionEvents int `json:"injection_events"`
	// Divergence is the first disagreement, nil unless divergent.
	Divergence *Divergence `json:"divergence,omitempty"`
}

// Equivalent reports whether the cell passed (identical or
// equivalent-modulo-noise).
func (cv *CellVerdict) Equivalent() bool { return cv.Tier != TierDivergent }

// CellStreams is one cell's persisted RQ2 evidence, the grader's only
// input: the monitor's verdict booleans and the canonical effect and
// state-audit streams in their persisted form (CanonicalStreams).
type CellStreams struct {
	Version string
	UseCase string
	Mode    campaign.Mode
	// ErroneousState and SecurityViolation are the monitor's verdict.
	ErroneousState    bool
	SecurityViolation bool
	// Effects and StateAudit are the rendered canonical streams.
	Effects    []string
	StateAudit []string
}

// Grade computes per-cell trace-equivalence verdicts from persisted
// streams, the one RQ2 grader: run records project into it
// (ledger.Equivalence). versions is the campaign's version order, the
// order the reference exploit is searched in. Verdicts follow the
// cells' order, one per exploit/injection pair (version-major,
// scenario-minor for a dispatch-ordered matrix). Persisted streams
// carry no mechanism events, so the strongest tier is
// equivalent-modulo-noise (see CompareStreams).
func Grade(cells []CellStreams, versions []string) ([]CellVerdict, error) {
	type key struct {
		version, useCase string
		mode             campaign.Mode
	}
	idx := make(map[key]*CellStreams, len(cells))
	for i := range cells {
		c := &cells[i]
		idx[key{c.Version, c.UseCase, c.Mode}] = c
	}

	// Reference exploit per scenario: the earliest version whose exploit
	// induced the erroneous state.
	reference := func(useCase string) *CellStreams {
		for _, v := range versions {
			if c, ok := idx[key{v, useCase, campaign.ModeExploit}]; ok && c.ErroneousState {
				return c
			}
		}
		return nil
	}

	var out []CellVerdict
	for i := range cells {
		e := &cells[i]
		if e.Mode != campaign.ModeExploit {
			continue
		}
		inj, ok := idx[key{e.Version, e.UseCase, campaign.ModeInjection}]
		if !ok {
			return nil, fmt.Errorf("tracediff: cell %s/%s has no injection sibling", e.Version, e.UseCase)
		}
		cv := CellVerdict{UseCase: e.UseCase, Version: e.Version}
		base, injected := e.Effects, inj.Effects
		switch {
		case e.ErroneousState:
			// The exploit worked here: strongest basis.
			cv.Basis = BasisExploit
		default:
			ref := reference(e.UseCase)
			if ref == nil {
				return nil, fmt.Errorf("tracediff: %s: no version's exploit induced the erroneous state; no reference to compare %s's injection against", e.UseCase, e.Version)
			}
			cv.RefVersion = ref.Version
			if inj.SecurityViolation == ref.SecurityViolation {
				cv.Basis, base = BasisReference, ref.Effects
			} else {
				// Handled cell: compare the erroneous state itself.
				cv.Basis, base, injected = BasisStateAudit, ref.StateAudit, inj.StateAudit
			}
		}
		cv.BaseEvents, cv.InjectionEvents = len(base), len(injected)
		if cv.Basis == BasisStateAudit && len(base) == 0 && len(injected) == 0 {
			// Nothing attested on either side: vacuous equality is not
			// equivalence evidence.
			cv.Tier = TierDivergent
			cv.Divergence = &Divergence{A: Absent, B: Absent}
		} else {
			cv.Tier, cv.Divergence = CompareStreams(base, injected)
		}
		out = append(out, cv)
	}
	return out, nil
}
