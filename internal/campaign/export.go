package campaign

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/telemetry"
)

// The export format: a stable JSON artifact a paper-reproduction package
// ships alongside its tables, so downstream tooling can diff campaign
// results across code revisions without parsing rendered text.

// ExportedRun is the JSON form of one (version, use case, mode) result.
type ExportedRun struct {
	Version           string   `json:"version"`
	UseCase           string   `json:"use_case"`
	Mode              string   `json:"mode"`
	ErroneousState    bool     `json:"erroneous_state"`
	SecurityViolation bool     `json:"security_violation"`
	Handled           bool     `json:"handled"`
	ScriptError       string   `json:"script_error,omitempty"`
	Transcript        []string `json:"transcript"`
	Evidence          []string `json:"evidence"`

	// Telemetry fields, populated only when the campaign ran under a
	// profiling Runner — omitted otherwise so artifacts produced without
	// telemetry are byte-identical to earlier revisions. Counters are
	// deterministic for a cell at any worker count; WallNS is not.
	WallNS        int64                    `json:"wall_ns,omitempty"`
	Counters      []telemetry.CounterValue `json:"counters,omitempty"`
	DroppedEvents uint64                   `json:"dropped_events,omitempty"`

	// Error is the cell's failure record, present only for cells that
	// failed under a ContinueOnError campaign — default campaigns never
	// emit it, keeping their artifacts byte-identical to earlier
	// revisions.
	Error *CellError `json:"error,omitempty"`
}

// ExportedCampaign is the top-level artifact.
type ExportedCampaign struct {
	Paper   string        `json:"paper"`
	Machine string        `json:"machine"`
	Runs    []ExportedRun `json:"runs"`
	Scores  []Score       `json:"scores,omitempty"`

	// Chaos metadata, present only when the campaign ran under a fault
	// plan and/or ContinueOnError — omitted otherwise so default
	// artifacts are byte-identical to earlier revisions.
	FaultPlanSeed   int64 `json:"fault_plan_seed,omitempty"`
	ContinueOnError bool  `json:"continue_on_error,omitempty"`
}

// exportRun converts one result; exactly one of res and cerr is set.
func exportRun(version, useCase string, mode Mode, res *RunResult, cerr *CellError) ExportedRun {
	out := ExportedRun{
		Version: version,
		UseCase: useCase,
		Mode:    string(mode),
	}
	if cerr != nil {
		out.Error = cerr
		return out
	}
	out.ErroneousState = res.Verdict.ErroneousState
	out.SecurityViolation = res.Verdict.SecurityViolation
	out.Handled = res.Verdict.Handled
	out.Transcript = res.Outcome.Log
	out.Evidence = res.Verdict.Evidence
	if res.Outcome.Err != nil {
		out.ScriptError = res.Outcome.Err.Error()
	}
	if p := res.Profile; p != nil {
		out.WallNS = p.WallNS
		out.Counters = p.Counters
		out.DroppedEvents = p.DroppedEvents
	}
	return out
}

// WriteExport writes the JSON artifact of one matrix run: every entry
// as a run and the per-version security-benchmark scores. faultSeed and
// continueOnError record the campaign's chaos configuration (the
// Runner's Faults.Seed() and ContinueOnError). Under ContinueOnError the
// artifact always materializes: failed cells carry their per-cell error
// records, and the scores are omitted when the benchmark's own cells
// failed (the per-cell records already describe the failures).
func WriteExport(w io.Writer, entries []MatrixEntry, faultSeed int64, continueOnError bool) error {
	// A failed injection cell leaves the scores out (nil); its run
	// record already describes the failure.
	scores, _ := Scores(entries)
	artifact := ExportedCampaign{
		Paper:           "Intrusion Injection for Virtualized Systems: Concepts and Approach (DSN 2023)",
		Machine:         fmt.Sprintf("simulated PV hypervisor, %d frames, %d-frame domains", MachineFrames, DomainFrames),
		Runs:            make([]ExportedRun, 0, len(entries)),
		Scores:          scores,
		FaultPlanSeed:   faultSeed,
		ContinueOnError: continueOnError,
	}
	for _, e := range entries {
		artifact.Runs = append(artifact.Runs, exportRun(e.Version, e.UseCase, e.Mode, e.Result, e.Err))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(artifact)
}

// MarshalJSON exports a Score with its derived resilience.
func (s Score) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Version          string  `json:"version"`
		StatesInjected   int     `json:"states_injected"`
		Violations       int     `json:"violations"`
		Handled          int     `json:"handled"`
		FailedInjections int     `json:"failed_injections"`
		Resilience       float64 `json:"resilience"`
	}{s.Version, s.StatesInjected, s.Violations, s.Handled, s.FailedInjections, s.Resilience()})
}
