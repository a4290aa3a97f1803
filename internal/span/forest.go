package span

import (
	"fmt"
	"strconv"
	"sync"
	"time"
)

// CellSpans is one settled cell's contribution to the forest: its span
// tree, the worker that ran it, and its wall placement. Trees are nil for cells the engine had to abandon (hangs,
// cancellations) — their goroutines own the tree and may still be
// running, so the collector records only the classification.
type CellSpans struct {
	// Cell is the "version/use-case/mode" identity.
	Cell string `json:"cell"`
	// Worker is the 0-based worker-pool index that ran the cell.
	Worker int `json:"worker"`
	// OffsetNS is the cell's wall start relative to the forest epoch.
	OffsetNS int64 `json:"offset_ns"`
	// WallNS is the cell's settled wall duration.
	WallNS int64 `json:"wall_ns"`
	// Class is the failure classification for failed cells, "" on
	// success.
	Class string `json:"class,omitempty"`
	// Tree is the cell's span tree, nil for abandoned cells.
	Tree *Tree `json:"-"`
}

// Batch is one dispatched batch of cells, in cell (dispatch) order.
type Batch struct {
	// Name identifies the batch within the run ("batch01", ...).
	Name string `json:"name"`
	// Cells are the settled cells, in the batch's announced cell order.
	// Unsettled cells (still running, or never dispatched) are nil.
	Cells []*CellSpans `json:"cells"`

	index map[string]int
}

// Collector assembles a campaign's span forest. It is safe for
// concurrent use by campaign workers; the runner notifies it as batches
// are announced and cells settle. The zero value is NOT usable — build
// one with NewCollector.
type Collector struct {
	mu      sync.Mutex
	epoch   time.Time
	batches []*Batch
}

// NewCollector creates an empty collector whose wall epoch is now.
func NewCollector() *Collector {
	return &Collector{epoch: time.Now()}
}

// Epoch returns the collector's wall epoch.
func (c *Collector) Epoch() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// StartBatch announces a batch's cells in dispatch order. Cells settle
// into the most recently announced batch (batches never overlap — the
// runner's experiments are sequential).
func (c *Collector) StartBatch(cells []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := &Batch{
		Name:  fmt.Sprintf("batch%02d", len(c.batches)+1),
		Cells: make([]*CellSpans, len(cells)),
		index: make(map[string]int, len(cells)),
	}
	for i, id := range cells {
		// First unsettled slot wins on duplicate ids (a batch never
		// dispatches the same cell twice, but be defensive).
		if _, ok := b.index[id]; !ok {
			b.index[id] = i
		}
	}
	c.batches = append(c.batches, b)
}

// FinishCell records a settled cell into its slot in the most recently
// announced batch. The runner announces every batch before its cells
// run, so a cell outside it is dropped.
func (c *Collector) FinishCell(cs *CellSpans) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.batches); n > 0 {
		b := c.batches[n-1]
		if i, ok := b.index[cs.Cell]; ok && b.Cells[i] == nil {
			b.Cells[i] = cs
		}
	}
}

// Forest snapshots the collected batches. Batches and cells are in
// deterministic dispatch order; unsettled cells are dropped.
func (c *Collector) Forest() *Forest {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := &Forest{Epoch: c.epoch}
	for _, b := range c.batches {
		nb := Batch{Name: b.Name}
		for _, cs := range b.Cells {
			if cs != nil {
				nb.Cells = append(nb.Cells, cs)
			}
		}
		if len(nb.Cells) > 0 {
			f.Batches = append(f.Batches, nb)
		}
	}
	return f
}

// Forest is a snapshot of a campaign's span trees: campaign → batch →
// cell → the per-cell trees.
type Forest struct {
	// Epoch is the wall origin every OffsetNS is relative to.
	Epoch time.Time `json:"epoch"`
	// Batches are the dispatched batches in order.
	Batches []Batch `json:"batches"`
}

// Cells returns every settled cell in batch-then-cell order.
func (f *Forest) Cells() []*CellSpans {
	var out []*CellSpans
	for i := range f.Batches {
		out = append(out, f.Batches[i].Cells...)
	}
	return out
}

// Check runs the tree invariants over every collected cell.
func (f *Forest) Check() error {
	for _, cs := range f.Cells() {
		if err := cs.Tree.Check(); err != nil {
			return err
		}
	}
	return nil
}

// PhaseTotals sums the virtual cost (event-count span width) of each
// phase across the forest's cells. Deterministic at any worker count.
func (f *Forest) PhaseTotals() map[string]uint64 {
	out := make(map[string]uint64)
	for _, cs := range f.Cells() {
		for _, s := range cs.Tree.Spans() {
			if s.Kind == KindPhase {
				out[s.Name] += s.EndV - s.StartV
			}
		}
	}
	return out
}

// CellCost is one cell's virtual cost decomposition, the unit of the
// critical-path analysis.
type CellCost struct {
	// Cell is the cell identity.
	Cell string `json:"cell"`
	// TotalV is the cell root span's virtual width (total events).
	TotalV uint64 `json:"total_v"`
	// PhaseV maps phase name to virtual width.
	PhaseV map[string]uint64 `json:"phase_v"`
}

// cost decomposes one settled cell.
func (cs *CellSpans) cost() CellCost {
	cc := CellCost{Cell: cs.Cell, PhaseV: make(map[string]uint64)}
	for _, s := range cs.Tree.Spans() {
		switch {
		case s.Kind == KindCell:
			cc.TotalV = s.EndV - s.StartV
		case s.Kind == KindPhase:
			cc.PhaseV[s.Name] += s.EndV - s.StartV
		}
	}
	return cc
}

// CriticalPath is the deterministic critical-path analysis of one batch
// on an N-worker pool: which chain of cells bounds the campaign's
// completion in virtual time, and by how much.
//
// The engine's real scheduler is a work-queue — cells go to whichever
// worker frees up first, so the wall-time assignment is racy. The
// analysis replays the same policy deterministically in virtual time:
// cells dispatch in batch order, each to the worker with the least
// accumulated virtual cost (ties to the lowest worker index). The chain
// on the most loaded simulated worker is the critical path: no schedule
// of this batch at this pool size finishes before its last cell's chain
// completes.
type CriticalPath struct {
	// Batch is the analyzed batch's name.
	Batch string `json:"batch"`
	// Workers is the simulated pool size.
	Workers int `json:"workers"`
	// TotalV is the summed virtual cost of every cell in the batch.
	TotalV uint64 `json:"total_v"`
	// MakespanV is the simulated completion time: the critical chain's
	// accumulated virtual cost.
	MakespanV uint64 `json:"makespan_v"`
	// Chain is the bounding worker's cell chain, in dispatch order.
	Chain []CellCost `json:"chain"`
	// Efficiency is TotalV / (Workers * MakespanV): 1.0 means the pool
	// never idles in virtual time.
	Efficiency float64 `json:"efficiency"`
}

// AnalyzeCriticalPath runs the deterministic critical-path analysis for
// a batch at the given pool size (clamped to [1, len(cells)]).
func AnalyzeCriticalPath(b *Batch, workers int) CriticalPath {
	cells := make([]*CellSpans, 0, len(b.Cells))
	for _, cs := range b.Cells {
		if cs != nil && cs.Tree != nil {
			cells = append(cells, cs)
		}
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(cells) && len(cells) > 0 {
		workers = len(cells)
	}
	cp := CriticalPath{Batch: b.Name, Workers: workers}
	load := make([]uint64, workers)
	chains := make([][]CellCost, workers)
	for _, cs := range cells {
		cc := cs.cost()
		cp.TotalV += cc.TotalV
		// Least-loaded worker, lowest index on ties.
		w := 0
		for i := 1; i < workers; i++ {
			if load[i] < load[w] {
				w = i
			}
		}
		load[w] += cc.TotalV
		chains[w] = append(chains[w], cc)
	}
	for i := range load {
		if load[i] > cp.MakespanV {
			cp.MakespanV = load[i]
			cp.Chain = chains[i]
		}
	}
	if cp.MakespanV > 0 {
		cp.Efficiency = float64(cp.TotalV) / (float64(workers) * float64(cp.MakespanV))
	}
	return cp
}

// Canonical renders the forest's deterministic structure: batch and
// cell headers, then each tree's spans in pre-order with kind, name and
// virtual interval, indented by depth. Wall times, worker assignment
// and epoch are excluded, so the rendering is byte-identical at any
// worker count — it is the golden-pin and digest surface.
func (f *Forest) Canonical() string {
	var b []byte
	for bi := range f.Batches {
		batch := &f.Batches[bi]
		b = append(b, batch.Name...)
		b = append(b, " cells="...)
		b = strconv.AppendInt(b, int64(len(batch.Cells)), 10)
		b = append(b, '\n')
		for _, cs := range batch.Cells {
			b = appendCanonicalTree(b, cs)
		}
	}
	return string(b)
}

// appendCanonicalTree appends one cell's canonical lines. Span names
// are quoted with strconv.AppendQuote, fmt's %q.
func appendCanonicalTree(b []byte, cs *CellSpans) []byte {
	b = append(b, "  "...)
	b = append(b, cs.Cell...)
	if cs.Tree == nil {
		b = append(b, " abandoned class="...)
		b = append(b, cs.Class...)
		return append(b, '\n')
	}
	if cs.Class != "" {
		b = append(b, " class="...)
		b = append(b, cs.Class...)
	}
	b = append(b, '\n')
	spans := cs.Tree.Spans()
	depth := make([]int, len(spans))
	for i := range spans {
		s := &spans[i]
		d := 0
		if s.Parent >= 0 {
			d = depth[s.Parent] + 1
		}
		depth[i] = d
		for j := 0; j < d+2; j++ {
			b = append(b, "  "...)
		}
		b = append(b, s.Kind.String()...)
		b = append(b, ' ')
		b = strconv.AppendQuote(b, s.Name)
		b = append(b, " ["...)
		b = strconv.AppendUint(b, s.StartV, 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, s.EndV, 10)
		b = append(b, ']')
		if s.Aborted {
			b = append(b, " aborted"...)
		}
		b = append(b, '\n')
	}
	return b
}
