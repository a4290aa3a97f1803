package campaign

import (
	"fmt"

	"repro/internal/hv"
)

// Score aggregates one version's behaviour under the injection campaign
// into benchmark-style numbers — the "security benchmark for virtualized
// infrastructures" the paper's conclusions aim at: instead of counting
// vulnerabilities (which says nothing about unknown ones), count how
// many injected intrusion effects the system tolerates.
type Score struct {
	// Version is the hypervisor release.
	Version string
	// StatesInjected counts erroneous states successfully induced.
	StatesInjected int
	// Violations counts those that became security violations.
	Violations int
	// Handled counts those the system coped with.
	Handled int
	// FailedInjections counts states that could not be induced (should
	// be zero for a working injector).
	FailedInjections int
}

// Resilience returns the fraction of injected states the system
// handled, in [0, 1]; the benchmark's headline number.
func (s Score) Resilience() float64 {
	if s.StatesInjected == 0 {
		return 0
	}
	return float64(s.Handled) / float64(s.StatesInjected)
}

// String renders the score as a benchmark row.
func (s Score) String() string {
	return fmt.Sprintf("Xen %-5s states=%d violations=%d handled=%d resilience=%.2f",
		s.Version, s.StatesInjected, s.Violations, s.Handled, s.Resilience())
}

// Scores projects the security benchmark from matrix entries: the
// injection cells aggregated per version, one Score per hv.Versions()
// entry in that order. On the 17-scenario corpus the ranking is 4.13
// (3/17) > 4.8 (1/17) = 4.6 (1/17). The aggregates need every injection
// cell, so the first failed one is an error.
func Scores(entries []MatrixEntry) ([]Score, error) {
	versions := hv.Versions()
	scores := make([]Score, 0, len(versions))
	for _, v := range versions {
		s := Score{Version: v.Name}
		for _, e := range entries {
			if e.Version != v.Name || e.Mode != ModeInjection {
				continue
			}
			if e.Err != nil {
				return nil, fmt.Errorf("campaign: benchmark %s on %s: %w", e.UseCase, v.Name, e.Err)
			}
			verdict := e.Result.Verdict
			if !verdict.ErroneousState {
				s.FailedInjections++
				continue
			}
			s.StatesInjected++
			if verdict.SecurityViolation {
				s.Violations++
			} else {
				s.Handled++
			}
		}
		scores = append(scores, s)
	}
	return scores, nil
}
