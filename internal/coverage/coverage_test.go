package coverage

import (
	"fmt"
	"strings"
	"testing"
)

func TestEdgeNamesAndFamilies(t *testing.T) {
	m := NewMap()
	m.Hypercall(1, "mmu_update", false)
	m.Hypercall(1, "mmu_update", true)
	m.PageType("get", 100, "l4")
	m.PageType("put", 100, "l4")
	m.ValidationReject(2, "superpage (PSE) mappings are not permitted")
	m.WalkDenied("hardened: guest write to l4 page-table frame 0x2a refused")
	m.InjectorOp("ARBITRARY_WRITE_PHYS")
	m.InjectorTransition("initial", "erroneous", "KEEP_PAGE_ACCESS")
	m.GrantOp("map")
	m.DomctlOp("pausedomain")
	want := []string{
		"domctl/pausedomain x1",
		"grant/map x1",
		"hypercall/mmu_update:err x1",
		"hypercall/mmu_update:ok x1",
		"injector/initial->erroneous:KEEP_PAGE_ACCESS x1",
		"injector/op:ARBITRARY_WRITE_PHYS x1",
		"pagetype/get:l4@general x1",
		"pagetype/put:l4@general x1",
		"validation/L2:superpage (PSE) mappings are not permitted x1",
		"walk/hardened: guest write to l4 page-table frame «x» refused x1",
	}
	got := strings.Split(strings.TrimRight(Canonical(m.Edges()), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("edge count: got %d, want %d\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("edge %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func TestCountingAndOrderIndependence(t *testing.T) {
	a, b := NewMap(), NewMap()
	a.Hypercall(1, "mmu_update", false)
	a.Hypercall(1, "mmu_update", false)
	a.GrantOp("map")
	// Same edges, observed in the opposite order.
	b.GrantOp("map")
	b.Hypercall(1, "mmu_update", false)
	b.Hypercall(1, "mmu_update", false)
	if a.Digest() != b.Digest() {
		t.Errorf("digest depends on observation order: %s vs %s", a.Digest(), b.Digest())
	}
	edges := a.Edges()
	if edges[1].Name != "mmu_update:ok" || edges[1].Count != 2 {
		t.Errorf("expected mmu_update:ok x2, got %+v", edges[1])
	}
	if a.Len() != 2 {
		t.Errorf("Len: got %d, want 2", a.Len())
	}
}

func TestFrameClassifier(t *testing.T) {
	m := NewMap()
	m.SetFrameClassifier(func(mfn uint64) string {
		if mfn < 16 {
			return "hv-text"
		}
		return "general"
	})
	m.PageType("get", 3, "writable")
	m.PageType("get", 100, "writable")
	canon := Canonical(m.Edges())
	if !strings.Contains(canon, "get:writable@hv-text x1") || !strings.Contains(canon, "get:writable@general x1") {
		t.Errorf("classifier not applied:\n%s", canon)
	}
}

func TestMaskReason(t *testing.T) {
	cases := map[string]string{
		"frame 0x2a refused":        "frame «x» refused",
		"mfn 1055 out of range":     "mfn «n» out of range",
		"bad entry 7f3a refused":    "bad entry «x» refused",
		"level 3 dom2 denied":       "level 3 dom2 denied", // single digits survive
		"all-letter word feed kept": "all-letter word feed kept",
	}
	for in, want := range cases {
		if got := MaskReason(in); got != want {
			t.Errorf("MaskReason(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestDigestPinned pins the FNV edge hashing and canonical rendering:
// if this digest moves, every committed coverage golden moves with it,
// so treat a failure as an intentional format change and regenerate
// the goldens.
func TestDigestPinned(t *testing.T) {
	m := NewMap()
	m.Hypercall(1, "mmu_update", false)
	m.GrantOp("map")
	const want = "16af8e58c8ed0252"
	if got := m.Digest(); got != want {
		t.Errorf("pinned digest moved: got %s, want %s (regenerate coverage goldens if intentional)", got, want)
	}
}

// TestDigestOfHashesCanonical holds DigestOf, which hashes the edges
// line by line, to the FNV-1a digest of the Canonical rendering in
// fmt's %016x, on non-ASCII names and zero and 64-bit counts.
func TestDigestOfHashesCanonical(t *testing.T) {
	edges := []Edge{
		{FamDomctl, "pause", 0},
		{FamPageType, "get:l1@«é»", 1},
		{FamWalk, "", 1<<64 - 1},
	}
	for n := 0; n <= len(edges); n++ {
		want := fmt.Sprintf("%016x", fnvString(fnvOffset, Canonical(edges[:n])))
		if got := DigestOf(edges[:n]); got != want {
			t.Errorf("DigestOf(%d edges) = %s, want %s", n, got, want)
		}
	}
	if got, want := Canonical(edges[1:2]), "pagetype/get:l1@«é» x1\n"; got != want {
		t.Errorf("Canonical = %q, want %q", got, want)
	}
}

// TestMergeAddsObservations: merging a map is observing its events.
func TestMergeAddsObservations(t *testing.T) {
	fc := func(mfn uint64) string {
		if mfn < 4 {
			return "hv-text"
		}
		return "general"
	}
	observe := func(m *Map, from, to uint64) {
		for mfn := from; mfn < to; mfn++ {
			m.PageType("get", mfn, "l1")
			m.PageType("put", mfn, "l2")
		}
	}
	whole := NewMap()
	whole.SetFrameClassifier(fc)
	whole.GrantOp("map")
	observe(whole, 0, 10)

	boot, cell := NewMap(), NewMap()
	boot.SetFrameClassifier(fc)
	observe(boot, 0, 6)
	cell.SetFrameClassifier(fc)
	cell.GrantOp("map")
	cell.Merge(boot)
	observe(cell, 6, 10)
	cell.Merge(nil)
	if got, want := Canonical(cell.Edges()), Canonical(whole.Edges()); got != want {
		t.Errorf("merged map\n%s\nwant\n%s", got, want)
	}
	observe(boot, 0, 1) // the merged map owns its edges
	if got, want := cell.Digest(), whole.Digest(); got != want {
		t.Errorf("merged digest %s moved with its source, want %s", got, want)
	}
}

func TestNilMapIsNoOp(t *testing.T) {
	var m *Map
	m.Hypercall(1, "x", false)
	m.PageType("get", 0, "l1")
	m.ValidationReject(1, "r")
	m.WalkDenied("r")
	m.InjectorOp("a")
	m.InjectorTransition("a", "b", "c")
	m.GrantOp("g")
	m.DomctlOp("d")
	m.SetFrameClassifier(nil)
	if m.Len() != 0 || m.Edges() != nil {
		t.Errorf("nil map must stay empty")
	}
	if m.Digest() != DigestOf(nil) {
		t.Errorf("nil map digest must equal empty digest")
	}
}

func TestCollectorDispatchOrderAttribution(t *testing.T) {
	mk := func(names ...string) *Map {
		m := NewMap()
		for _, n := range names {
			m.GrantOp(n)
		}
		return m
	}
	col := NewCollector()
	col.StartBatch([]string{"c1", "c2", "c3"})
	// Completion order is adversarial: c3 first, then c1, then c2.
	col.FinishCell("c3", mk("a", "c"))
	col.FinishCell("c1", mk("a", "b"))
	col.FinishCell("c2", mk("b", "c"))
	rep := col.Report()
	if rep.TotalEdges != 3 {
		t.Fatalf("union: got %d edges, want 3", rep.TotalEdges)
	}
	// Attribution follows dispatch order c1, c2, c3 — not completion.
	wantNew := map[string]int{"c1": 2, "c2": 1, "c3": 0}
	for _, c := range rep.Cells {
		if c.NewEdges != wantNew[c.Cell] {
			t.Errorf("cell %s: new=%d, want %d", c.Cell, c.NewEdges, wantNew[c.Cell])
		}
	}
	for _, u := range rep.Union {
		first := map[string]string{"grant/a": "c1", "grant/b": "c1", "grant/c": "c2"}[string(u.Family)+"/"+u.Name]
		if u.FirstCell != first {
			t.Errorf("edge %s/%s: first=%s, want %s", u.Family, u.Name, u.FirstCell, first)
		}
		if u.Cells != 2 {
			t.Errorf("edge %s/%s: cells=%d, want 2", u.Family, u.Name, u.Cells)
		}
	}
	if err := rep.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestCollectorImplicitBatchAndNilMaps(t *testing.T) {
	col := NewCollector()
	// A one-cell batch, as Runner.RunContext announces.
	m := NewMap()
	m.DomctlOp("createdomain")
	col.StartBatch([]string{"solo"})
	col.FinishCell("solo", m)
	// An announced cell abandoned before producing coverage files nil.
	col.StartBatch([]string{"dead"})
	col.FinishCell("dead", nil)
	rep := col.Report()
	if len(rep.Cells) != 2 {
		t.Fatalf("cells: got %d, want 2", len(rep.Cells))
	}
	if rep.Cells[0].Cell != "solo" || rep.Cells[0].NewEdges != 1 {
		t.Errorf("solo cell wrong: %+v", rep.Cells[0])
	}
	if rep.Cells[1].Cell != "dead" || len(rep.Cells[1].Edges) != 0 || rep.Cells[1].NewEdges != 0 {
		t.Errorf("dead cell must settle empty: %+v", rep.Cells[1])
	}
}

func TestReportDiff(t *testing.T) {
	mk := func(names ...string) *Report {
		col := NewCollector()
		m := NewMap()
		for _, n := range names {
			m.GrantOp(n)
		}
		col.StartBatch([]string{"cell"})
		col.FinishCell("cell", m)
		return col.Report()
	}
	a := mk("x", "y")
	b := mk("y", "z")
	newEdges, lostEdges := Diff(a, b)
	if len(newEdges) != 1 || newEdges[0].Name != "z" {
		t.Errorf("new edges: %+v", newEdges)
	}
	if len(lostEdges) != 1 || lostEdges[0].Name != "x" {
		t.Errorf("lost edges: %+v", lostEdges)
	}
	if n, l := Diff(a, a); n != nil || l != nil {
		t.Errorf("self-diff must be empty: new=%v lost=%v", n, l)
	}
}

// settledReport is a two-cell report whose second cell repeats one of
// the first cell's edges, so attribution, union counts and the family
// breakdown all carry information Verify must recompute.
func settledReport() *Report {
	col := NewCollector()
	a, b := NewMap(), NewMap()
	a.GrantOp("map")
	a.DomctlOp("pause")
	b.GrantOp("map")
	b.Hypercall(1, "mmu_update", false)
	col.StartBatch([]string{"a", "b"})
	col.FinishCell("b", b)
	col.FinishCell("a", a)
	return col.Report()
}

func TestVerifyCatchesTampering(t *testing.T) {
	if err := settledReport().Verify(); err != nil {
		t.Fatalf("untouched report fails Verify: %v", err)
	}
	for _, tc := range []struct {
		name   string
		tamper func(*Report)
	}{
		{"union count", func(r *Report) { r.Union[0].Count++ }},
		// total_edges and families are outside the digest: only
		// re-settling the union catches them.
		{"total_edges", func(r *Report) { r.TotalEdges = 999 }},
		{"domctl family count", func(r *Report) { r.Families[0].Edges = 500 }},
		{"dropped family", func(r *Report) { r.Families = r.Families[1:] }},
		// Edits re-digested to look consistent must still disagree with
		// the cells' edge lists.
		{"new_edges re-digested", func(r *Report) { r.Cells[1].NewEdges = 2; r.Digest = r.computeDigest() }},
		{"first witness re-digested", func(r *Report) { r.Union[0].FirstCell = "b"; r.Digest = r.computeDigest() }},
		{"dropped union edge re-digested", func(r *Report) { r.Union = r.Union[1:]; r.Digest = r.computeDigest() }},
	} {
		rep := settledReport()
		tc.tamper(rep)
		if err := rep.Verify(); err == nil {
			t.Errorf("%s: Verify passed a tampered report", tc.name)
		}
	}
}

func TestNilCollectorIsNoOp(t *testing.T) {
	var col *Collector
	col.StartBatch([]string{"a"})
	col.FinishCell("a", NewMap())
	rep := col.Report()
	if rep.TotalEdges != 0 || len(rep.Cells) != 0 {
		t.Errorf("nil collector must report empty: %+v", rep)
	}
}
