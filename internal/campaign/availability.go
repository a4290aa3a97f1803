package campaign

import (
	"context"
	"fmt"

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
	// Injected reports whether the monitor's audit found the erroneous
	// state in place.
	Injected bool
	// VictimCompletion is the victim guest's workload completion rate
	// after the injection, in [0, 1].
	VictimCompletion float64
	// Stopped notes an availability-terminal platform state.
	Stopped    bool
	StopReason string
}

// AvailabilityUnderInjection runs the injection campaign on one version
// and, after each injection and its assessment, drives the standard
// workload on a victim guest (not the attacker). The version's cells run
// as one batch on a Runner with no observers, so they fork, run in
// parallel behind the recover barrier and the watchdog, and recycle like
// any cell, while the workload reaches no matrix artifact. Crash-class
// states zero out availability; handled states leave it intact — the
// dependability-benchmark view of Table III.
func AvailabilityUnderInjection(v hv.Version, cfg workload.Config) ([]AvailabilityRow, error) {
	p := campaignPlan()
	var cells []cell
	for i := range p.specs {
		if p.specs[i].AppliesTo(v.Name) {
			cells = append(cells, cell{version: v, spec: &p.specs[i], mode: ModeInjection, bystander: &cfg})
		}
	}
	entries, err := (&Runner{}).runEntries(context.Background(), cells)
	if err != nil {
		return nil, err
	}
	rows := make([]AvailabilityRow, len(entries))
	for i, en := range entries {
		w := en.Result.bystander
		rows[i] = AvailabilityRow{
			Version:          v.Name,
			UseCase:          en.UseCase,
			Injected:         en.Result.Verdict.ErroneousState,
			VictimCompletion: w.CompletionRate(cfg),
			Stopped:          w.Stopped,
			StopReason:       w.StopReason,
		}
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
