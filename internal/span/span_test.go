package span_test

// The span tree's contract: every opened span closes exactly once —
// through its own End, through an enclosing End that force-closes
// forgotten children, or through Abort on a failing path — and the
// virtual-time structure nests properly. Check() is the oracle the
// campaign chaos suite runs over every salvaged tree; these tests pin
// what it accepts and what it rejects.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/span"
)

// clockTree builds a tree whose virtual clock the test advances by
// hand, so intervals are exact.
func clockTree(cell string) (*span.Tree, *uint64) {
	v := new(uint64)
	return span.NewTree(cell, func() uint64 { return *v }), v
}

func TestTreeLifecycle(t *testing.T) {
	tr, v := clockTree("4.6/XSA-1/exploit")
	if got := tr.Cell(); got != "4.6/XSA-1/exploit" {
		t.Errorf("Cell() = %q", got)
	}
	*v = 1
	boot := tr.Phase(span.PhaseBoot)
	*v = 3
	mm := tr.MMOp("alloc_range[8]")
	*v = 5
	tr.End(mm)
	*v = 6
	tr.End(boot)
	*v = 7
	attack := tr.Phase(span.PhaseInject)
	hc := tr.Hypercall("mmu_update")
	*v = 9
	tr.End(hc)
	tr.End(attack)
	assess := tr.Phase(span.PhaseAssess)
	aud := tr.Audit("XSA-1")
	*v = 11
	tr.End(aud)
	tr.End(assess)
	tr.Finish()

	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if tr.Open() != 0 {
		t.Errorf("Open() = %d after Finish", tr.Open())
	}
	spans := tr.Spans()
	if len(spans) != 7 {
		t.Fatalf("got %d spans, want 7", len(spans))
	}
	// Pre-order: root first, IDs are creation indices, parents nest.
	root := spans[0]
	if root.Kind != span.KindCell || root.Parent != -1 || root.StartV != 0 || root.EndV != 11 {
		t.Errorf("root = %+v", root)
	}
	if spans[2].Kind != span.KindMMOp || spans[2].Parent != boot {
		t.Errorf("mm_op span = %+v, want parent %d", spans[2], boot)
	}
	if spans[2].StartV != 3 || spans[2].EndV != 5 {
		t.Errorf("mm_op interval = [%d,%d], want [3,5]", spans[2].StartV, spans[2].EndV)
	}
	if spans[6].Kind != span.KindAudit || spans[6].Name != "audit:XSA-1" {
		t.Errorf("audit span = %+v", spans[6])
	}
	for _, s := range spans {
		if s.Aborted {
			t.Errorf("span %d (%s %q) aborted on the happy path", s.ID, s.Kind, s.Name)
		}
	}
	if p := spans[attack]; p.Kind != span.KindPhase || p.Name != span.PhaseInject || p.StartV != 7 || p.EndV != 9 {
		t.Errorf("inject phase = %+v, want [7,9]", p)
	}
}

// A nil tree is the disabled state: every method no-ops and Start
// returns -1 so callers never branch.
func TestNilTreeNoops(t *testing.T) {
	var tr *span.Tree
	id := tr.Start(span.KindPhase, span.PhaseBoot)
	if id != -1 {
		t.Errorf("nil Start = %d, want -1", id)
	}
	tr.End(id)
	tr.End(0)
	tr.Abort()
	tr.Finish()
	if tr.Spans() != nil || tr.Open() != 0 || tr.Cell() != "" {
		t.Error("nil tree leaked state")
	}
	if err := tr.Check(); err != nil {
		t.Errorf("nil Check = %v", err)
	}
}

// Audit on a nil tree returns before it builds the span name, so an
// assessment with spans off allocates nothing for it.
func TestNilAuditAllocatesNothing(t *testing.T) {
	var tr *span.Tree
	if n := testing.AllocsPerRun(100, func() { tr.Audit("XSA-212-crash") }); n != 0 {
		t.Errorf("nil Audit allocates %v times, want 0", n)
	}
}

// graftSource builds the closed spans below a boot tree's root: two
// phases, the first holding an mm op and a hypercall.
func graftSource() []span.Span {
	tr, v := clockTree("boot")
	*v = 1
	a := tr.Phase("a")
	*v = 2
	mm := tr.MMOp("alloc_range[8]")
	*v = 3
	tr.End(mm)
	*v = 4
	hc := tr.Hypercall("mmu_update")
	*v = 5
	tr.End(hc)
	*v = 6
	tr.End(a)
	*v = 7
	b := tr.Phase("b")
	*v = 8
	tr.End(b)
	return append([]span.Span(nil), tr.Spans()[1:]...)
}

// Graft appends another tree's closed spans under the open span: IDs
// continue the tree's, the source root's children hang from the open
// span, virtual bounds are kept, and the result is a closed, valid tree
// that shares nothing with the source.
func TestGraft(t *testing.T) {
	src := graftSource()
	before := append([]span.Span(nil), src...)
	cases := []struct {
		name string
		// prepare opens the graft point and returns the span the source
		// root's children must hang from; done closes what it opened.
		prepare func(tr *span.Tree) (under int, done func())
	}{
		{"under-root", func(tr *span.Tree) (int, func()) { return 0, func() {} }},
		{"under-open-phase", func(tr *span.Tree) (int, func()) {
			tr.End(tr.Hypercall("console_io"))
			boot := tr.Phase(span.PhaseBoot)
			return boot, func() { tr.End(boot) }
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, v := clockTree("cell")
			under, done := c.prepare(tr)
			base := len(tr.Spans())
			tr.Graft(src)
			*v = 9
			done()
			tr.Finish()
			if tr.Open() != 0 {
				t.Errorf("Open() = %d after Finish", tr.Open())
			}
			if err := tr.Check(); err != nil {
				t.Fatalf("Check: %v", err)
			}
			got := tr.Spans()
			if len(got) != base+len(src) {
				t.Fatalf("got %d spans, want %d", len(got), base+len(src))
			}
			wantParent := []int{under, base, base, under}
			for i, s := range got[base:] {
				o := src[i]
				if s.ID != base+i || s.Parent != wantParent[i] {
					t.Errorf("span %d: ID %d parent %d, want ID %d parent %d", i, s.ID, s.Parent, base+i, wantParent[i])
				}
				if s.Kind != o.Kind || s.Name != o.Name || s.StartV != o.StartV || s.EndV != o.EndV || s.Aborted {
					t.Errorf("span %d = %+v, want the source's %+v", i, s, o)
				}
				if s.StartNS != s.EndNS {
					t.Errorf("span %d wall bounds [%d,%d], want the graft instant", i, s.StartNS, s.EndNS)
				}
			}
			got[base].Name, got[base+1].Parent = "mutated", 99
			if fmt.Sprint(src) != fmt.Sprint(before) {
				t.Errorf("grafted tree aliases its source:\n%+v\nwant\n%+v", src, before)
			}
		})
	}
}

// Grafting nothing, or into a nil tree, changes nothing.
func TestGraftNoops(t *testing.T) {
	var nilTree *span.Tree
	nilTree.Graft(graftSource())
	if nilTree.Spans() != nil {
		t.Error("nil tree grew spans")
	}
	tr, _ := clockTree("cell")
	tr.Phase(span.PhaseBoot)
	tr.Graft(nil)
	tr.Graft([]span.Span{})
	if n, open := len(tr.Spans()), tr.Open(); n != 2 || open != 2 {
		t.Errorf("after empty grafts: %d spans, %d open; want 2 and 2", n, open)
	}
	tr.Finish()
	if err := tr.Check(); err != nil {
		t.Errorf("Check: %v", err)
	}
}

// Ending an outer span force-closes the children a failing path left
// open, marking them (and only them) aborted.
func TestEndClosesForgottenChildrenAborted(t *testing.T) {
	tr, v := clockTree("cell")
	phase := tr.Phase(span.PhaseBoot)
	inner := tr.Hypercall("mmu_update")
	*v = 4
	tr.End(phase) // inner never ended
	tr.Finish()
	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	spans := tr.Spans()
	if !spans[inner].Aborted {
		t.Error("forgotten child not marked aborted")
	}
	if spans[phase].Aborted || spans[0].Aborted {
		t.Error("explicitly-ended spans marked aborted")
	}
	if spans[inner].EndV != 4 {
		t.Errorf("forgotten child EndV = %d, want 4", spans[inner].EndV)
	}
}

// Abort force-closes everything open, aborting all but the cell root.
func TestAbortClosesEverything(t *testing.T) {
	tr, v := clockTree("cell")
	tr.Phase(span.PhaseBoot)
	tr.Hypercall("mmu_update")
	*v = 9
	tr.Abort()
	if err := tr.Check(); err != nil {
		t.Fatalf("Check after Abort: %v", err)
	}
	spans := tr.Spans()
	if spans[0].Aborted {
		t.Error("cell root marked aborted; the cell did end")
	}
	for _, s := range spans[1:] {
		if !s.Aborted {
			t.Errorf("span %d (%s %q) not aborted", s.ID, s.Kind, s.Name)
		}
		if s.EndV != 9 {
			t.Errorf("span %d EndV = %d, want 9", s.ID, s.EndV)
		}
	}
}

// Double-End and out-of-range End are ignored; the counters stay
// balanced.
func TestEndIsIdempotentAndBoundsChecked(t *testing.T) {
	tr, _ := clockTree("cell")
	p := tr.Phase(span.PhaseBoot)
	tr.End(p)
	tr.End(p)  // double
	tr.End(99) // never existed
	tr.End(-5) // nil-tree sentinel range
	tr.Finish()
	tr.Finish() // double Finish
	if err := tr.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

// Check rejects the failure modes it exists to catch.
func TestCheckRejectsOpenSpans(t *testing.T) {
	tr, _ := clockTree("cell")
	tr.Phase(span.PhaseBoot)
	err := tr.Check()
	if err == nil || !strings.Contains(err.Error(), "still open") {
		t.Errorf("Check on open tree = %v, want still-open error", err)
	}
}

// finishedCell builds a settled cell whose root span is exactly totalV
// wide, with a single boot phase covering it.
func finishedCell(id string, worker int, totalV uint64) *span.CellSpans {
	tr, v := clockTree(id)
	p := tr.Phase(span.PhaseBoot)
	*v = totalV
	tr.End(p)
	tr.Finish()
	return &span.CellSpans{Cell: id, Worker: worker, Tree: tr}
}

func TestCollectorAssemblesBatchesInDispatchOrder(t *testing.T) {
	c := span.NewCollector()
	c.StartBatch([]string{"a", "b", "c"})
	// Cells settle out of order; the forest keeps dispatch order.
	c.FinishCell(finishedCell("c", 2, 3))
	c.FinishCell(finishedCell("a", 0, 1))
	c.FinishCell(finishedCell("b", 1, 2))
	// A second batch with an unsettled cell: it is dropped.
	c.StartBatch([]string{"d", "e"})
	c.FinishCell(finishedCell("e", 0, 5))
	// A one-cell batch, as Runner.RunContext announces.
	c.StartBatch([]string{"solo"})
	c.FinishCell(finishedCell("solo", 0, 7))

	f := c.Forest()
	if err := f.Check(); err != nil {
		t.Fatalf("forest Check: %v", err)
	}
	if len(f.Batches) != 3 {
		t.Fatalf("got %d batches, want 3", len(f.Batches))
	}
	var order []string
	for _, cs := range f.Cells() {
		order = append(order, cs.Cell)
	}
	want := []string{"a", "b", "c", "e", "solo"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("forest cell order = %v, want %v", order, want)
	}
	if f.Batches[0].Name != "batch01" || f.Batches[1].Name != "batch02" {
		t.Errorf("batch names = %q, %q", f.Batches[0].Name, f.Batches[1].Name)
	}
}

// The critical-path analysis replays least-loaded dispatch
// deterministically: known costs produce a known chain.
func TestAnalyzeCriticalPath(t *testing.T) {
	b := &span.Batch{Name: "batch01"}
	for _, c := range []struct {
		id string
		v  uint64
	}{{"c1", 5}, {"c2", 4}, {"c3", 3}, {"c4", 2}, {"c5", 1}} {
		b.Cells = append(b.Cells, finishedCell(c.id, 0, c.v))
	}
	cp := span.AnalyzeCriticalPath(b, 2)
	// Dispatch replay: c1->w0(5), c2->w1(4), c3->w1(7), c4->w0(7),
	// c5 ties -> w0(8). Critical chain is w0: c1,c4,c5.
	if cp.TotalV != 15 || cp.MakespanV != 8 {
		t.Errorf("total=%d makespan=%d, want 15/8", cp.TotalV, cp.MakespanV)
	}
	var chain []string
	for _, cc := range cp.Chain {
		chain = append(chain, cc.Cell)
	}
	if strings.Join(chain, ",") != "c1,c4,c5" {
		t.Errorf("chain = %v, want c1,c4,c5", chain)
	}
	if want := 15.0 / 16.0; cp.Efficiency != want {
		t.Errorf("efficiency = %v, want %v", cp.Efficiency, want)
	}

	// Pool clamps: zero/negative to 1, oversize to the cell count.
	if cp := span.AnalyzeCriticalPath(b, 0); cp.Workers != 1 || cp.MakespanV != 15 {
		t.Errorf("workers=0: %+v, want serial makespan 15", cp)
	}
	if cp := span.AnalyzeCriticalPath(b, 64); cp.Workers != 5 || cp.MakespanV != 5 {
		t.Errorf("workers=64: workers=%d makespan=%d, want 5/5", cp.Workers, cp.MakespanV)
	}
}

// Canonical output excludes wall times and worker placement, so two
// forests with identical virtual structure render byte-identically.
func TestCanonicalExcludesWallAndWorker(t *testing.T) {
	build := func(worker int, wall int64) string {
		c := span.NewCollector()
		c.StartBatch([]string{"a", "b"})
		ca := finishedCell("a", worker, 4)
		ca.WallNS, ca.OffsetNS = wall, wall
		c.FinishCell(ca)
		c.FinishCell(&span.CellSpans{Cell: "b", Worker: worker, Class: "hang"})
		return c.Forest().Canonical()
	}
	one, two := build(0, 111), build(7, 999)
	if one != two {
		t.Errorf("canonical differs with wall/worker placement:\n%s\nvs\n%s", one, two)
	}
	for _, want := range []string{
		"batch01 cells=2\n",
		"  a\n",
		`    cell "a" [0,4]`,
		`      phase "boot" [0,4]`,
		"  b abandoned class=hang\n",
	} {
		if !strings.Contains(one, want) {
			t.Errorf("canonical missing %q:\n%s", want, one)
		}
	}
}

// The Chrome export is a valid JSON array with process/track metadata
// and one complete event per span, on the owning worker's track.
func TestWriteChromeValidJSON(t *testing.T) {
	c := span.NewCollector()
	c.StartBatch([]string{"a", "b", "hung"})
	c.FinishCell(finishedCell("a", 0, 4))
	c.FinishCell(finishedCell("b", 1, 2))
	c.FinishCell(&span.CellSpans{Cell: "hung", Worker: 1, Class: "hang"}) // no tree: metadata only

	var buf bytes.Buffer
	if err := span.WriteChrome(&buf, c.Forest()); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil {
		t.Fatalf("export is not a JSON array: %v\n%s", err, buf.String())
	}
	meta, complete := 0, 0
	tracks := map[float64]bool{}
	for _, r := range rows {
		switch r["ph"] {
		case "M":
			meta++
			if r["name"] == "thread_name" {
				tracks[r["tid"].(float64)] = true
			}
		case "X":
			complete++
			args := r["args"].(map[string]any)
			if args["cell"] == "" || args["v_start"] == nil || args["v_end"] == nil {
				t.Errorf("X event missing args: %v", r)
			}
			if !tracks[r["tid"].(float64)] {
				t.Errorf("X event on undeclared track %v", r["tid"])
			}
		}
	}
	// process_name + 2 worker tracks; 2 spans per settled cell.
	if meta != 3 || complete != 4 {
		t.Errorf("got %d metadata / %d complete events, want 3/4", meta, complete)
	}
}

// fmtCanonical is Forest.Canonical as it was written with fmt, the
// format the span-forest golden and digest pin.
func fmtCanonical(f *span.Forest) string {
	var b strings.Builder
	for _, batch := range f.Batches {
		fmt.Fprintf(&b, "%s cells=%d\n", batch.Name, len(batch.Cells))
		for _, cs := range batch.Cells {
			if cs.Tree == nil {
				fmt.Fprintf(&b, "  %s abandoned class=%s\n", cs.Cell, cs.Class)
				continue
			}
			fmt.Fprintf(&b, "  %s", cs.Cell)
			if cs.Class != "" {
				fmt.Fprintf(&b, " class=%s", cs.Class)
			}
			b.WriteString("\n")
			spans := cs.Tree.Spans()
			depth := make([]int, len(spans))
			for i, s := range spans {
				d := 0
				if s.Parent >= 0 {
					d = depth[s.Parent] + 1
				}
				depth[i] = d
				fmt.Fprintf(&b, "  %s%s %q [%d,%d]", strings.Repeat("  ", d+1), s.Kind, s.Name, s.StartV, s.EndV)
				if s.Aborted {
					b.WriteString(" aborted")
				}
				b.WriteString("\n")
			}
		}
	}
	return b.String()
}

// TestCanonicalFormat pins the canonical tree lines to their fmt
// rendering on quoted and non-ASCII span names, a failure class,
// aborted spans and an abandoned cell.
func TestCanonicalFormat(t *testing.T) {
	tr, v := clockTree("4.6/XSA-\"q\"/injection")
	*v = 2
	tr.MMOp(`alloc "«é»"` + "\t\u2028")
	*v = 5
	tr.Phase("")
	tr.Abort()
	c := span.NewCollector()
	c.StartBatch([]string{"4.6/XSA-\"q\"/injection", "4.13/b/exploit"})
	c.FinishCell(&span.CellSpans{Cell: "4.6/XSA-\"q\"/injection", Class: "error", Tree: tr})
	c.FinishCell(&span.CellSpans{Cell: "4.13/b/exploit", Class: "hang"})
	f := c.Forest()
	want := "batch01 cells=2\n" +
		"  4.6/XSA-\"q\"/injection class=error\n" +
		"    cell \"4.6/XSA-\\\"q\\\"/injection\" [0,5]\n" +
		"      mm_op \"alloc \\\"«é»\\\"\\t\\u2028\" [2,5] aborted\n" +
		"        phase \"\" [5,5] aborted\n" +
		"  4.13/b/exploit abandoned class=hang\n"
	if got := f.Canonical(); got != want {
		t.Errorf("Canonical() =\n%s\nwant\n%s", got, want)
	}
	if got := fmtCanonical(f); got != want {
		t.Errorf("fmt rendering =\n%s\nwant\n%s", got, want)
	}
}
