package campaign

import "fmt"

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
