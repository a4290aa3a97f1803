package campaign

import (
	"fmt"

	"repro/internal/exploits"
	"repro/internal/hv"
	"repro/internal/workload"
)

// AvailabilityRow is one cell of the availability-under-injection
// experiment: a victim guest runs the standard workload after the
// erroneous state is injected, and the completion rate measures how much
// service survives.
type AvailabilityRow struct {
	Version string
	UseCase string
	// Injected reports whether the erroneous state landed.
	Injected bool
	// Violation reports the monitor's verdict.
	Violation bool
	// VictimCompletion is the victim guest's workload completion rate
	// after the injection, in [0, 1].
	VictimCompletion float64
	// Stopped notes an availability-terminal platform state.
	Stopped    bool
	StopReason string
}

// AvailabilityUnderInjection runs the injection campaign on one version
// and, after each injection, drives the standard workload on a victim
// guest (not the attacker). Each use case gets its environment the way
// a campaign cell does (forked from the sealed snapshot, or booted
// fresh under -no-snapshot) and leaves it corrupted, so no fork returns
// to the pool. Crash-class states zero out availability; handled states
// leave it intact — the dependability-benchmark view of Table III.
func AvailabilityUnderInjection(v hv.Version, cfg workload.Config) ([]AvailabilityRow, error) {
	specs := exploits.Specs()
	rows := make([]AvailabilityRow, 0, len(specs))
	c := cell{version: v, mode: ModeInjection}
	for _, spec := range specs {
		if !spec.AppliesTo(v.Name) {
			continue
		}
		e, _, err := cellEnvironment(campaignPlan(), c, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		env, err := e.ScenarioEnv(ModeInjection)
		if err != nil {
			return nil, err
		}
		outcome := spec.Run(env)
		victim := e.Guests[1] // guest01: neither dom0 nor the attacker
		res := workload.Run(victim, cfg)
		rows = append(rows, AvailabilityRow{
			Version:          v.Name,
			UseCase:          spec.Name,
			Injected:         outcome.ErroneousState,
			Violation:        e.HV.Crashed(),
			VictimCompletion: res.CompletionRate(cfg),
			Stopped:          res.Stopped,
			StopReason:       res.StopReason,
		})
	}
	return rows, nil
}

// String renders a row.
func (r AvailabilityRow) String() string {
	s := fmt.Sprintf("%s on %s: injected=%v completion=%.2f", r.UseCase, r.Version, r.Injected, r.VictimCompletion)
	if r.Stopped {
		s += " (" + r.StopReason + ")"
	}
	return s
}
