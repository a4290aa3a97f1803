package coverage

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Collector aggregates per-cell coverage maps across a campaign. It
// mirrors span.Collector's batch discipline: the runner announces each
// batch's cells in dispatch order via StartBatch, workers hand in
// finished maps via FinishCell in whatever order they complete, and
// Report settles everything into dispatch order — so union membership,
// first-witness cells and per-cell new-edge attribution are identical
// at any worker count.
type Collector struct {
	mu      sync.Mutex
	batches []*batch
}

type batch struct {
	order []string
	cells map[string]*cellEntry
}

type cellEntry struct {
	m    *Map
	done bool
}

// NewCollector returns an empty campaign coverage collector.
func NewCollector() *Collector { return &Collector{} }

// StartBatch announces the next batch of cells in dispatch order.
func (c *Collector) StartBatch(cells []string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := &batch{order: append([]string(nil), cells...), cells: make(map[string]*cellEntry, len(cells))}
	for _, id := range cells {
		b.cells[id] = &cellEntry{}
	}
	c.batches = append(c.batches, b)
}

// FinishCell records a cell's finished map (nil for a cell that was
// abandoned before producing coverage) in the latest batch that
// announced it. The runner announces every batch before its cells run,
// so a cell no batch announced is dropped.
func (c *Collector) FinishCell(cell string, m *Map) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.batches) - 1; i >= 0; i-- {
		if e, ok := c.batches[i].cells[cell]; ok && !e.done {
			e.m, e.done = m, true
			return
		}
	}
}

// CellCoverage is one cell's settled coverage in a Report.
type CellCoverage struct {
	Cell string `json:"cell"`
	// Edges is the cell's full sorted edge list with counts.
	Edges []Edge `json:"edges,omitempty"`
	// NewEdges counts edges first witnessed by this cell, attributed
	// in dispatch order.
	NewEdges int `json:"new_edges"`
	// Digest is the canonical digest of this cell's edge list.
	Digest string `json:"digest"`
}

// UnionEdge is one edge of the campaign union with attribution.
type UnionEdge struct {
	Family Family `json:"family"`
	Name   string `json:"name"`
	// Count sums the edge's hits across all cells.
	Count uint64 `json:"count"`
	// Cells counts how many cells witnessed the edge.
	Cells int `json:"cells"`
	// FirstCell is the dispatch-order first witness.
	FirstCell string `json:"first_cell"`
}

// Report is the settled campaign coverage: per-cell maps in dispatch
// order plus the attributed union. It is the `-coverage cov.json`
// artifact and the `/coverage` endpoint payload.
type Report struct {
	TotalEdges int            `json:"total_edges"`
	Digest     string         `json:"digest"`
	Families   []FamilyCount  `json:"families"`
	Cells      []CellCoverage `json:"cells"`
	Union      []UnionEdge    `json:"union"`
}

// FamilyCount is the number of distinct union edges in one family.
type FamilyCount struct {
	Family Family `json:"family"`
	Edges  int    `json:"edges"`
}

// Report settles the collected maps into dispatch order and computes
// the union with first-witness attribution. It may be called while the
// campaign is live; unfinished cells appear with empty coverage until
// they settle.
func (c *Collector) Report() *Report {
	if c == nil {
		return &Report{}
	}
	c.mu.Lock()
	var cells []CellCoverage
	for _, b := range c.batches {
		for _, id := range b.order {
			cells = append(cells, CellCoverage{Cell: id, Edges: b.cells[id].m.Edges()})
		}
	}
	c.mu.Unlock()
	return settle(cells)
}

// settle completes the report of cells, given in dispatch order with
// only Cell and Edges set, filling each cell's Digest and NewEdges.
func settle(cells []CellCoverage) *Report {
	rep := &Report{Cells: cells}
	union := make(map[string]*UnionEdge)
	for i := range cells {
		cc := &cells[i]
		cc.Digest = DigestOf(cc.Edges)
		for _, e := range cc.Edges {
			key := string(e.Family) + "/" + e.Name
			u, ok := union[key]
			if !ok {
				u = &UnionEdge{Family: e.Family, Name: e.Name, FirstCell: cc.Cell}
				union[key] = u
				cc.NewEdges++
			}
			u.Count += e.Count
			u.Cells++
		}
	}
	rep.Union = make([]UnionEdge, 0, len(union))
	for _, u := range union {
		rep.Union = append(rep.Union, *u)
	}
	sort.Slice(rep.Union, func(i, j int) bool {
		if rep.Union[i].Family != rep.Union[j].Family {
			return rep.Union[i].Family < rep.Union[j].Family
		}
		return rep.Union[i].Name < rep.Union[j].Name
	})
	rep.TotalEdges = len(rep.Union)
	famCount := make(map[Family]int)
	for _, u := range rep.Union {
		famCount[u.Family]++
	}
	for _, fam := range []Family{FamDomctl, FamGrant, FamHypercall, FamInjector, FamPageType, FamValidation, FamWalk} {
		if n := famCount[fam]; n > 0 {
			rep.Families = append(rep.Families, FamilyCount{Family: fam, Edges: n})
		}
	}
	rep.Digest = rep.computeDigest()
	return rep
}

// Canonical renders the report in its canonical text form: per-cell
// header lines in dispatch order followed by the attributed union.
// Everything the digest covers is here; nothing here depends on wall
// time, completion order or worker count.
func (r *Report) Canonical() string {
	var b strings.Builder
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "cell %s edges=%d new=%d digest=%s\n", c.Cell, len(c.Edges), c.NewEdges, c.Digest)
	}
	for _, u := range r.Union {
		fmt.Fprintf(&b, "%s/%s x%d cells=%d first=%s\n", u.Family, u.Name, u.Count, u.Cells, u.FirstCell)
	}
	return b.String()
}

func (r *Report) computeDigest() string {
	return fmt.Sprintf("%016x", fnvString(fnvOffset, r.Canonical()))
}

// Verify re-settles the report from its cells' edge lists and checks
// every derived field against the result, catching hand-edited or
// truncated artifacts.
func (r *Report) Verify() error {
	cells := make([]CellCoverage, len(r.Cells))
	for i, c := range r.Cells {
		if got := DigestOf(c.Edges); got != c.Digest {
			return fmt.Errorf("cell %s: digest %s does not match edges (recomputed %s)", c.Cell, c.Digest, got)
		}
		cells[i] = CellCoverage{Cell: c.Cell, Edges: c.Edges}
	}
	want := settle(cells)
	if r.Canonical() != want.Canonical() {
		return errors.New("new-edge counts or union do not match the cells' edges")
	}
	if r.TotalEdges != want.TotalEdges || !slices.Equal(r.Families, want.Families) {
		return fmt.Errorf("total_edges %d and families %v do not match the union (recomputed %d, %v)",
			r.TotalEdges, r.Families, want.TotalEdges, want.Families)
	}
	if r.Digest != want.Digest {
		return fmt.Errorf("report digest %s does not match contents (recomputed %s)", r.Digest, want.Digest)
	}
	return nil
}

// Diff compares two reports' unions. New edges are present in b but
// not a; lost edges are present in a but not b. Both carry b's (or
// a's, for lost) first-witness cell so a diff names where the edge
// came from.
func Diff(a, b *Report) (newEdges, lostEdges []UnionEdge) {
	inA := make(map[string]bool, len(a.Union))
	for _, u := range a.Union {
		inA[string(u.Family)+"/"+u.Name] = true
	}
	inB := make(map[string]bool, len(b.Union))
	for _, u := range b.Union {
		inB[string(u.Family)+"/"+u.Name] = true
	}
	for _, u := range b.Union {
		if !inA[string(u.Family)+"/"+u.Name] {
			newEdges = append(newEdges, u)
		}
	}
	for _, u := range a.Union {
		if !inB[string(u.Family)+"/"+u.Name] {
			lostEdges = append(lostEdges, u)
		}
	}
	return newEdges, lostEdges
}
