package ledger

import (
	"errors"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/exploits"
	"repro/internal/monitor"
	"repro/internal/tracediff"
)

// Artifact reconstruction. The repro binary renders its equivalence
// and coverage artifacts from the settled record (and, under -ledger,
// its matrix too) rather than from live in-memory results — full runs
// and delta reruns share one rendering source, which is what makes a
// merged rerun's artifacts byte-identical to an uninterrupted run's.

// MatrixEntries reconstructs renderable campaign matrix entries from
// the record, in dispatch order. Successful cells rebuild the verdict
// booleans and the script's terminating error (the "PoC failed" note);
// failed cells carry their classified CellError.
func (r *Record) MatrixEntries() []campaign.MatrixEntry {
	out := make([]campaign.MatrixEntry, 0, len(r.Entries))
	for _, e := range r.Entries {
		me := campaign.MatrixEntry{Version: e.Version, UseCase: e.Scenario, Mode: campaign.Mode(e.Mode), Err: e.Error}
		if e.Error == nil && e.Verdict != nil {
			oc := &exploits.Outcome{UseCase: e.Scenario, Mode: e.Mode, Version: e.Version}
			if e.Verdict.ScriptError != "" {
				oc.Err = errors.New(e.Verdict.ScriptError)
			}
			me.Result = &campaign.RunResult{
				Outcome: oc,
				Verdict: &monitor.Verdict{
					UseCase:           e.Scenario,
					Mode:              e.Mode,
					Version:           e.Version,
					ErroneousState:    e.Verdict.ErroneousState,
					SecurityViolation: e.Verdict.SecurityViolation,
					Handled:           e.Verdict.Handled,
				},
			}
		}
		out = append(out, me)
	}
	return out
}

// EquivalenceVerdicts returns the record's attached RQ2 verdicts in
// matrix order. ok is false when the record is not fully graded (some
// expected injection entry lacks a verdict, or a cell failed) — the
// cases where a live run would not render the table either.
func (r *Record) EquivalenceVerdicts() (verdicts []tracediff.CellVerdict, ok bool) {
	for _, e := range r.Entries {
		if e.Error != nil {
			return nil, false
		}
		if e.Mode != string(campaign.ModeInjection) {
			continue
		}
		if e.Equivalence == nil {
			return nil, false
		}
		verdicts = append(verdicts, *e.Equivalence)
	}
	return verdicts, len(verdicts) > 0
}

// CoverageReport replays the record's per-cell coverage through the
// live campaign aggregation: one batch of all cells in dispatch order,
// so union membership, first-witness attribution and the report digest
// are identical to what the campaign's own collector produced.
func (r *Record) CoverageReport() *coverage.Report {
	c := coverage.NewCollector()
	ids := make([]string, 0, len(r.Entries))
	for _, e := range r.Entries {
		ids = append(ids, e.Key().Cell())
	}
	c.StartBatch(ids)
	for _, e := range r.Entries {
		var m *coverage.Map
		if e.Coverage != nil {
			m = coverage.FromEdges(e.Coverage.EdgeList)
		}
		c.FinishCell(e.Key().Cell(), m)
	}
	return c.Report()
}
