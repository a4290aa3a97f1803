package ledger

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/tracediff"
)

// Equivalence grades the RQ2 trace-equivalence verdicts from a record's
// persisted canonical streams by projecting its entries into
// tracediff.Grade, the same grader live matrices use, with the record's
// version order as the reference order. Because it reads only the
// record, a resumed run — part reused entries, part re-executed —
// grades identically to an uninterrupted one; that is what makes merged
// equivalence artifacts byte-identical.
//
// Like the live engine, a failed or unprofiled cell is an error: an
// equivalence claim over a partial matrix would be vacuous.
func Equivalence(rec *Record) ([]tracediff.CellVerdict, error) {
	cells := make([]tracediff.CellStreams, len(rec.Entries))
	for i, e := range rec.Entries {
		if e.Error != nil {
			return nil, fmt.Errorf("ledger: cell %s/%s/%s failed: %s", e.Version, e.Scenario, e.Mode, e.Error)
		}
		if !e.Profiled || e.Verdict == nil {
			return nil, fmt.Errorf("ledger: cell %s/%s/%s has no persisted trace streams (run with telemetry)", e.Version, e.Scenario, e.Mode)
		}
		cells[i] = tracediff.CellStreams{
			Version:           e.Version,
			UseCase:           e.Scenario,
			Mode:              campaign.Mode(e.Mode),
			ErroneousState:    e.Verdict.ErroneousState,
			SecurityViolation: e.Verdict.SecurityViolation,
			Effects:           e.Effects,
			StateAudit:        e.StateAudit,
		}
	}
	return tracediff.Grade(cells, rec.Config.Versions)
}
