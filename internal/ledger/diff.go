package ledger

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/tracediff"
)

// The cross-run regression diff. Two records — typically a committed
// baseline and a fresh run — compare cell by cell on the
// (scenario, version, mode) coordinate (the seed is config-level and
// reported in the header, so diffing across fault loads stays
// meaningful). The diff reuses the repo's canonical machinery: coverage
// edge gains/losses come from coverage.Diff over the reconstructed
// campaign reports (first-witness cells included), equivalence-tier
// changes compare the records' attached tracediff verdicts, and the
// rendering is canonical text — dispatch order, no wall times — so the
// diff itself is a byte-stable artifact.

// cellCoord matches entries across runs (seed excluded; it is config).
type cellCoord struct{ scenario, version, mode string }

func coord(e *Entry) cellCoord { return cellCoord{e.Scenario, e.Version, e.Mode} }

func (c cellCoord) String() string { return c.version + "/" + c.scenario + "/" + c.mode }

// VerdictFlip is one cell whose outcome changed between runs: verdict
// booleans, failure class, or success vs failure.
type VerdictFlip struct {
	Cell cellCoord
	From *Entry
	To   *Entry
}

// outcomeString renders an entry's outcome compactly for flip lines.
func outcomeString(e *Entry) string {
	if e.Error != nil {
		return fmt.Sprintf("failed(%s)", e.Error.Class)
	}
	if e.Verdict == nil {
		return "unknown"
	}
	mark := func(v bool) string {
		if v {
			return "✓"
		}
		return "-"
	}
	s := "err-state=" + mark(e.Verdict.ErroneousState) + " sec-viol=" + mark(e.Verdict.SecurityViolation)
	if e.Verdict.Handled {
		s += " handled"
	}
	return s
}

// sameOutcome reports whether two entries agree on verdict and failure
// classification.
func sameOutcome(a, b *Entry) bool {
	switch {
	case a.Error != nil || b.Error != nil:
		return a.Error != nil && b.Error != nil && a.Error.Class == b.Error.Class
	case a.Verdict == nil || b.Verdict == nil:
		return a.Verdict == nil && b.Verdict == nil
	}
	return a.Verdict.ErroneousState == b.Verdict.ErroneousState &&
		a.Verdict.SecurityViolation == b.Verdict.SecurityViolation &&
		a.Verdict.Handled == b.Verdict.Handled
}

// TierChange is one injection cell whose RQ2 verdict changed tier or
// basis between runs.
type TierChange struct {
	Cell     cellCoord
	From, To *tracediff.CellVerdict
}

// SpanDrift is one cell whose span makespan (virtual time) moved.
type SpanDrift struct {
	Cell     cellCoord
	From, To uint64
}

// RunDiff is the settled comparison of two run records.
type RunDiff struct {
	A, B *Record
	// OnlyA and OnlyB list cells present in one record only, in that
	// record's dispatch order.
	OnlyA, OnlyB []cellCoord
	// Flips are outcome changes on shared cells (B's dispatch order).
	Flips []VerdictFlip
	// TierChanges are RQ2 verdict changes on shared injection cells.
	TierChanges []TierChange
	// NewEdges and LostEdges are the campaign coverage union's gains and
	// losses (coverage.Diff over the reconstructed reports), each with
	// its first-witness cell.
	NewEdges, LostEdges []coverage.UnionEdge
	// SpanDrifts are span-makespan movements on shared successful cells.
	SpanDrifts []SpanDrift
}

// Diff compares two records, a as the baseline and b as the candidate.
func Diff(a, b *Record) *RunDiff {
	d := &RunDiff{A: a, B: b}
	inA := make(map[cellCoord]*Entry, len(a.Entries))
	for _, e := range a.Entries {
		inA[coord(e)] = e
	}
	inB := make(map[cellCoord]*Entry, len(b.Entries))
	for _, e := range b.Entries {
		inB[coord(e)] = e
	}
	for _, e := range a.Entries {
		if _, ok := inB[coord(e)]; !ok {
			d.OnlyA = append(d.OnlyA, coord(e))
		}
	}
	for _, e := range b.Entries {
		c := coord(e)
		prev, ok := inA[c]
		if !ok {
			d.OnlyB = append(d.OnlyB, c)
			continue
		}
		if !sameOutcome(prev, e) {
			d.Flips = append(d.Flips, VerdictFlip{Cell: c, From: prev, To: e})
		}
		if e.Mode == string(campaign.ModeInjection) && !sameTier(prev.Equivalence, e.Equivalence) {
			d.TierChanges = append(d.TierChanges, TierChange{Cell: c, From: prev.Equivalence, To: e.Equivalence})
		}
		if prev.Error == nil && e.Error == nil && prev.SpanV != e.SpanV {
			d.SpanDrifts = append(d.SpanDrifts, SpanDrift{Cell: c, From: prev.SpanV, To: e.SpanV})
		}
	}
	d.NewEdges, d.LostEdges = coverage.Diff(a.CoverageReport(), b.CoverageReport())
	sortUnion(d.NewEdges)
	sortUnion(d.LostEdges)
	return d
}

func sameTier(a, b *tracediff.CellVerdict) bool {
	switch {
	case a == nil || b == nil:
		return (a == nil) == (b == nil)
	}
	return a.Tier == b.Tier && a.Basis == b.Basis && a.RefVersion == b.RefVersion
}

func sortUnion(edges []coverage.UnionEdge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Family != edges[j].Family {
			return edges[i].Family < edges[j].Family
		}
		return edges[i].Name < edges[j].Name
	})
}

// Fatal reports whether the diff crosses the regression gate `make
// ledger-diff` enforces: a baseline cell missing from the candidate, a
// verdict flip or a lost coverage edge. Tier changes, drift and cells
// only the candidate has are reported but not fatal.
func (d *RunDiff) Fatal() bool {
	return len(d.OnlyA) > 0 || len(d.Flips) > 0 || len(d.LostEdges) > 0
}

// Clean reports a diff with nothing to say.
func (d *RunDiff) Clean() bool {
	return len(d.OnlyA) == 0 && len(d.OnlyB) == 0 && len(d.Flips) == 0 &&
		len(d.TierChanges) == 0 && len(d.NewEdges) == 0 && len(d.LostEdges) == 0 &&
		len(d.SpanDrifts) == 0
}

// Render writes the diff as a canonical text report.
func (d *RunDiff) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "RUN DIFF %s -> %s\n", d.A.RunID, d.B.RunID)
	fmt.Fprintf(&b, "  baseline:  %s (%d/%d cells)\n", d.A.Config.canonical(), d.A.Completed, d.A.Cells)
	fmt.Fprintf(&b, "  candidate: %s (%d/%d cells)\n", d.B.Config.canonical(), d.B.Completed, d.B.Cells)
	if d.Clean() {
		b.WriteString("no differences\n")
		return b.String()
	}
	if len(d.OnlyA) > 0 {
		fmt.Fprintf(&b, "CELLS ONLY IN BASELINE (%d)\n", len(d.OnlyA))
		for _, c := range d.OnlyA {
			fmt.Fprintf(&b, "  %s\n", c)
		}
	}
	if len(d.OnlyB) > 0 {
		fmt.Fprintf(&b, "CELLS ONLY IN CANDIDATE (%d)\n", len(d.OnlyB))
		for _, c := range d.OnlyB {
			fmt.Fprintf(&b, "  %s\n", c)
		}
	}
	if len(d.Flips) > 0 {
		fmt.Fprintf(&b, "VERDICT FLIPS (%d)\n", len(d.Flips))
		for _, f := range d.Flips {
			fmt.Fprintf(&b, "  %s: %s -> %s\n", f.Cell, outcomeString(f.From), outcomeString(f.To))
		}
	}
	if len(d.TierChanges) > 0 {
		fmt.Fprintf(&b, "EQUIVALENCE TIER CHANGES (%d)\n", len(d.TierChanges))
		for _, t := range d.TierChanges {
			fmt.Fprintf(&b, "  %s: %s -> %s\n", t.Cell, tierString(t.From), tierString(t.To))
		}
	}
	if len(d.NewEdges) > 0 || len(d.LostEdges) > 0 {
		fmt.Fprintf(&b, "COVERAGE: +%d new edges, -%d lost edges\n", len(d.NewEdges), len(d.LostEdges))
		for _, e := range d.NewEdges {
			fmt.Fprintf(&b, "  NEW  %s/%s x%d first=%s\n", e.Family, e.Name, e.Count, e.FirstCell)
		}
		for _, e := range d.LostEdges {
			fmt.Fprintf(&b, "  LOST %s/%s x%d first=%s\n", e.Family, e.Name, e.Count, e.FirstCell)
		}
	}
	if len(d.SpanDrifts) > 0 {
		fmt.Fprintf(&b, "SPAN MAKESPAN DRIFT (%d)\n", len(d.SpanDrifts))
		for _, s := range d.SpanDrifts {
			fmt.Fprintf(&b, "  %s: %d -> %d virtual\n", s.Cell, s.From, s.To)
		}
	}
	return b.String()
}

func tierString(cv *tracediff.CellVerdict) string {
	if cv == nil {
		return "ungraded"
	}
	s := string(cv.Tier) + "/" + string(cv.Basis)
	if cv.RefVersion != "" {
		s += "@" + cv.RefVersion
	}
	return s
}
