package campaign

import (
	"fmt"

	"repro/internal/hv"
)

// The paper's experiments are projections of one campaign: Fig. 4 is
// the matrix's 4.6 slice, Table III its 4.8/4.13 injection slice, and
// the security benchmark (score.go) its injection slice on every
// version. Each projection reads the entries of one matrix run, so a
// CLI invocation runs every cell once however many experiments it
// renders. Row shapes need every cell, so the first failed entry a
// projection needs — possible only under ContinueOnError — is its
// error.

// Fig4Row is one use case of the RQ1 validation (Fig. 4): the original
// exploit and the injection script on the vulnerable version, compared.
type Fig4Row struct {
	UseCase   string
	Exploit   *RunResult
	Injection *RunResult
	// StatesMatch and ViolationsMatch are the equivalence the figure's
	// "compare" step asserts.
	StatesMatch     bool
	ViolationsMatch bool
}

// Table3Cell is one (use case, version) cell of Table III.
type Table3Cell struct {
	ErrState bool
	SecViol  bool
}

// Table3Row is one use case across the non-vulnerable versions.
type Table3Row struct {
	UseCase string
	Cells   map[string]Table3Cell // keyed by version name
}

// Table3Versions are the non-vulnerable versions the campaign injects
// into. The returned slice is freshly allocated on every call; callers
// may mutate it freely.
func Table3Versions() []hv.Version {
	return []hv.Version{hv.Version48(), hv.Version413()}
}

// MatrixEntry is one cell of the full campaign: every version, use case
// and mode. The exploit rows on fixed versions document Section VII's
// "we could not induce the erroneous states" with the original PoCs.
type MatrixEntry struct {
	Version string
	UseCase string
	Mode    Mode
	// Result is the cell's outcome, nil when the cell failed under a
	// ContinueOnError campaign.
	Result *RunResult
	// Err is the cell's failure record, nil when the cell succeeded.
	// Populated only by ContinueOnError campaigns; the default mode
	// reports the first failure as the campaign error instead.
	Err *CellError
}

// indexEntries keys the entries by cell identity and lists the use
// cases they run, in registry order — the row order of every projection.
func indexEntries(entries []MatrixEntry) (map[CellRef]MatrixEntry, []string) {
	idx := make(map[CellRef]MatrixEntry, len(entries))
	ran := make(map[string]bool)
	for _, e := range entries {
		idx[CellRef{e.Version, e.UseCase, e.Mode}] = e
		ran[e.UseCase] = true
	}
	var useCases []string
	for _, s := range campaignPlan().specs {
		if ran[s.Name] {
			useCases = append(useCases, s.Name)
		}
	}
	return idx, useCases
}

// Fig4Rows projects the RQ1 validation (Fig. 4) from matrix entries:
// every use case the entries run on the vulnerable 4.6 version, exploit
// vs injection.
func Fig4Rows(entries []MatrixEntry) ([]Fig4Row, error) {
	v := hv.Version46().Name
	idx, useCases := indexEntries(entries)
	rows := make([]Fig4Row, 0, len(useCases))
	for _, uc := range useCases {
		ex, okEx := idx[CellRef{v, uc, ModeExploit}]
		in, okIn := idx[CellRef{v, uc, ModeInjection}]
		if okEx != okIn {
			return nil, fmt.Errorf("campaign: fig4 %s: exploit and injection entries must come in pairs", uc)
		}
		if !okEx {
			continue
		}
		for _, e := range []MatrixEntry{ex, in} {
			if e.Err != nil {
				return nil, fmt.Errorf("campaign: fig4 %s %s: %w", uc, e.Mode, e.Err)
			}
		}
		rows = append(rows, Fig4Row{
			UseCase:         uc,
			Exploit:         ex.Result,
			Injection:       in.Result,
			StatesMatch:     ex.Result.Verdict.ErroneousState == in.Result.Verdict.ErroneousState,
			ViolationsMatch: ex.Result.Verdict.SecurityViolation == in.Result.Verdict.SecurityViolation,
		})
	}
	return rows, nil
}

// Table3Rows projects the RQ2/RQ3 injection campaign (Table III) from
// matrix entries: one row per use case the entries run, with a cell for
// each of Table3Versions the use case was injected on.
func Table3Rows(entries []MatrixEntry) ([]Table3Row, error) {
	idx, useCases := indexEntries(entries)
	versions := Table3Versions()
	rows := make([]Table3Row, 0, len(useCases))
	for _, uc := range useCases {
		row := Table3Row{UseCase: uc, Cells: make(map[string]Table3Cell, len(versions))}
		for _, v := range versions {
			e, ok := idx[CellRef{v.Name, uc, ModeInjection}]
			if !ok {
				continue
			}
			if e.Err != nil {
				return nil, fmt.Errorf("campaign: table3 %s on %s: %w", uc, v.Name, e.Err)
			}
			row.Cells[v.Name] = Table3Cell{
				ErrState: e.Result.Verdict.ErroneousState,
				SecViol:  e.Result.Verdict.SecurityViolation,
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}
