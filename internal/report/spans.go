package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/span"
)

// phaseColumns orders the per-phase breakdown columns: the lifecycle
// order first, then anything unexpected alphabetically.
func phaseColumns(f *span.Forest) []string {
	known := []string{span.PhaseBoot, span.PhaseExploit, span.PhaseInject, span.PhaseAssess}
	seen := f.PhaseTotals()
	var cols []string
	for _, p := range known {
		if _, ok := seen[p]; ok {
			cols = append(cols, p)
			delete(seen, p)
		}
	}
	var rest []string
	for p := range seen {
		rest = append(rest, p)
	}
	sort.Strings(rest)
	return append(cols, rest...)
}

// SpanSummary renders the campaign's span forest: campaign-wide phase
// totals and the deterministic critical-path analysis of every batch
// at the given pool size. Everything in it is measured in virtual time
// (events), so the output is byte-identical at any worker count and
// golden-pinnable.
func SpanSummary(f *span.Forest, workers int) string {
	var b strings.Builder
	b.WriteString("CAUSAL SPAN SUMMARY (virtual time, events)\n")
	b.WriteString(rule(72) + "\n")
	if len(f.Cells()) == 0 {
		b.WriteString("no spans collected (was the campaign run with -spans?)\n")
		return b.String()
	}

	cols := phaseColumns(f)
	totals := f.PhaseTotals()
	b.WriteString(fmt.Sprintf("%-40s %s\n", "Phase", "Total"))
	b.WriteString(rule(72) + "\n")
	for _, p := range cols {
		b.WriteString(fmt.Sprintf("%-40s %d\n", p, totals[p]))
	}

	for bi := range f.Batches {
		batch := &f.Batches[bi]
		cp := span.AnalyzeCriticalPath(batch, workers)
		b.WriteString(rule(72) + "\n")
		b.WriteString(fmt.Sprintf("%s: %d cells, workers=%d\n", batch.Name, len(batch.Cells), cp.Workers))
		b.WriteString(fmt.Sprintf("critical path: makespan=%d total=%d efficiency=%.3f\n",
			cp.MakespanV, cp.TotalV, cp.Efficiency))
		header := fmt.Sprintf("%-36s %8s", "Cell (critical chain)", "total")
		for _, p := range cols {
			header += fmt.Sprintf(" %8s", p)
		}
		b.WriteString(header + "\n")
		for _, cc := range cp.Chain {
			row := fmt.Sprintf("%-36s %8d", cc.Cell, cc.TotalV)
			for _, p := range cols {
				row += fmt.Sprintf(" %8d", cc.PhaseV[p])
			}
			b.WriteString(row + "\n")
		}
	}

	b.WriteString(rule(72) + "\n")
	return b.String()
}
