package report

import (
	"strings"
	"testing"

	"repro/internal/span"
)

// summaryForest builds a two-cell forest with known virtual costs: one
// clean cell and one failed cell.
func summaryForest() *span.Forest {
	c := span.NewCollector()
	c.StartBatch([]string{"a", "b"})
	mk := func(id string, boot, inject uint64) *span.CellSpans {
		v := new(uint64)
		tr := span.NewTree(id, func() uint64 { return *v })
		p := tr.Phase(span.PhaseBoot)
		*v = boot
		tr.End(p)
		p = tr.Phase(span.PhaseInject)
		*v = boot + inject
		tr.End(p)
		tr.Finish()
		return &span.CellSpans{Cell: id, Tree: tr}
	}
	c.FinishCell(mk("a", 10, 5))
	b := mk("b", 20, 7)
	b.Class = "error"
	c.FinishCell(b)
	return c.Forest()
}

func TestSpanSummaryRendering(t *testing.T) {
	s := SpanSummary(summaryForest(), 2)
	for _, want := range []string{
		"CAUSAL SPAN SUMMARY (virtual time, events)",
		"Phase",
		"boot 30",   // 10 + 20, column-collapsed below
		"inject 12", // 5 + 7
		"batch01: 2 cells, workers=2",
		"critical path: makespan=27 total=42 efficiency=0.778",
		"Cell (critical chain)",
	} {
		// Table rows are fixed-width; compare with whitespace collapsed
		// so the assertion survives column re-padding.
		if !strings.Contains(collapse(s), collapse(want)) {
			t.Errorf("span summary missing %q:\n%s", want, s)
		}
	}
	// The critical chain at two workers is the heavier cell alone.
	if !strings.Contains(collapse(s), "b 27 20 7") {
		t.Errorf("summary missing the critical chain row for b:\n%s", s)
	}
}

func TestSpanSummaryEmptyForest(t *testing.T) {
	s := SpanSummary(&span.Forest{}, 4)
	if !strings.Contains(s, "no spans collected") {
		t.Errorf("empty-forest summary = %q", s)
	}
}

// collapse folds runs of whitespace to single spaces for fixed-width
// table assertions.
func collapse(s string) string {
	return strings.Join(strings.Fields(s), " ")
}
