package campaign

import "repro/internal/hv"

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
