// Package span is the causal layer on top of the telemetry recorder:
// where the recorder answers "what events happened", spans answer "what
// was the system *doing* when they happened, and inside what". Spans
// form a tree per campaign cell — cell → phase (boot, exploit/inject,
// assess) → individual hypercall and mm-operation spans — and a forest
// per campaign (campaign → batch → cell), the structured, hierarchical
// timing capture that record-and-replay tracing frameworks show is what
// makes virtualization-stack behaviour analyzable, as opposed to flat
// logs.
//
// Every span carries two clocks:
//
//   - Virtual time: the environment's event-count clock (the telemetry
//     recorder's emission counter). The simulator is deterministic per
//     cell, so virtual timestamps — and with them the entire span
//     structure — are byte-identical at any worker count and under any
//     seeded -chaos plan.
//   - Wall time: nanoseconds since the tree's epoch. Wall times feed
//     the Chrome trace export and the observed critical path; they are
//     never part of the canonical structure.
//
// A nil *Tree is the disabled state: every method no-ops, so
// instrumented paths cost one predicted branch when spans are off,
// matching the telemetry recorder's contract.
package span

import (
	"fmt"
	"time"
)

// Kind classifies a span's level in the causal tree.
type Kind uint8

// Span kinds, root to leaf.
const (
	// KindCampaign is the forest root covering a whole CLI invocation.
	KindCampaign Kind = iota + 1
	// KindBatch is one dispatched batch of cells (one Runner experiment).
	KindBatch
	// KindCell is one campaign cell's root span.
	KindCell
	// KindPhase is a cell lifecycle phase: boot, exploit/inject, assess.
	KindPhase
	// KindHypercall is one hypercall dispatch.
	KindHypercall
	// KindMMOp is one machine-memory operation (range allocation).
	KindMMOp
	// KindAudit is one monitor audit pass inside the assess phase.
	KindAudit
)

// String returns the snake_case wire name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCampaign:
		return "campaign"
	case KindBatch:
		return "batch"
	case KindCell:
		return "cell"
	case KindPhase:
		return "phase"
	case KindHypercall:
		return "hypercall"
	case KindMMOp:
		return "mm_op"
	case KindAudit:
		return "audit"
	default:
		return fmt.Sprintf("kind_%d", uint8(k))
	}
}

// Phase names used by the campaign engine. The attack phase is named
// after the cell's mode: "exploit" or "inject".
const (
	PhaseBoot    = "boot"
	PhaseExploit = "exploit"
	PhaseInject  = "inject"
	PhaseAssess  = "assess"
)

// Span is one node of a cell's causal tree. IDs are 0-based creation
// indices within the tree; Parent is -1 for the root. Creation order is
// also pre-order, so a tree renders without pointer chasing.
type Span struct {
	// ID is the span's creation index within its tree.
	ID int `json:"id"`
	// Parent is the enclosing span's ID, -1 for the cell root.
	Parent int `json:"parent"`
	// Kind classifies the span.
	Kind Kind `json:"-"`
	// Name is the span's deterministic label (phase name, hypercall
	// name, operation).
	Name string `json:"name"`
	// StartV and EndV are the virtual (event-count clock) bounds.
	StartV uint64 `json:"v_start"`
	EndV   uint64 `json:"v_end"`
	// StartNS and EndNS are wall-clock bounds in nanoseconds since the
	// tree epoch. Not part of the canonical structure.
	StartNS int64 `json:"wall_start_ns"`
	EndNS   int64 `json:"wall_end_ns"`
	// Aborted marks a span that was force-closed by Abort (a panicking
	// or erroring cell unwinding) instead of by its own End.
	Aborted bool `json:"aborted,omitempty"`

	// done guards the closed-exactly-once invariant.
	done bool
}

// Tree builds one cell's span tree. Like the telemetry recorder it is
// single-goroutine by design — one cell, one worker, one tree — and the
// nil Tree is the disabled state.
type Tree struct {
	cell  string
	clock func() uint64
	epoch time.Time

	spans []Span
	stack []int

	opened, closed int
}

// NewTree creates a tree for the named cell with the given virtual
// clock (typically telemetry.(*Recorder).Emitted) and opens the cell
// root span. A nil clock counts spans instead of events, keeping the
// tree usable without a recorder.
func NewTree(cell string, clock func() uint64) *Tree {
	t := &Tree{cell: cell, clock: clock, epoch: time.Now()}
	if t.clock == nil {
		t.clock = func() uint64 { return uint64(t.opened + t.closed) }
	}
	t.Start(KindCell, cell)
	return t
}

// Cell returns the tree's cell identity ("" for nil).
func (t *Tree) Cell() string {
	if t == nil {
		return ""
	}
	return t.cell
}

// now reads both clocks.
func (t *Tree) now() (v uint64, ns int64) {
	return t.clock(), time.Since(t.epoch).Nanoseconds()
}

// Start opens a span under the currently open span and returns its ID.
// Returns -1 on a nil tree; End(-1) no-ops, so callers never branch.
func (t *Tree) Start(kind Kind, name string) int {
	if t == nil {
		return -1
	}
	v, ns := t.now()
	id := len(t.spans)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Kind: kind, Name: name,
		StartV: v, EndV: v, StartNS: ns, EndNS: ns,
	})
	t.stack = append(t.stack, id)
	t.opened++
	return id
}

// End closes the span. Spans close LIFO; if id is not the top of the
// stack, the spans opened inside it are closed (aborted) first, so a
// child a failing path forgot can never keep its ancestors open. Ending
// a span twice, or a span of another tree, is ignored — the invariant
// suite checks that no correct path ever does.
func (t *Tree) End(id int) {
	if t == nil || id < 0 || id >= len(t.spans) || t.spans[id].done {
		return
	}
	v, ns := t.now()
	for n := len(t.stack); n > 0; n = len(t.stack) {
		top := t.stack[n-1]
		t.stack = t.stack[:n-1]
		s := &t.spans[top]
		s.EndV, s.EndNS, s.done = v, ns, true
		s.Aborted = top != id
		t.closed++
		if top == id {
			return
		}
	}
}

// Phase opens a KindPhase span.
func (t *Tree) Phase(name string) int { return t.Start(KindPhase, name) }

// Hypercall opens a KindHypercall span named after the hypercall.
func (t *Tree) Hypercall(name string) int { return t.Start(KindHypercall, name) }

// MMOp opens a KindMMOp span.
func (t *Tree) MMOp(name string) int { return t.Start(KindMMOp, name) }

// Audit opens a KindAudit span. A nil tree returns before building the
// name, so an assessment with spans off allocates nothing here.
func (t *Tree) Audit(useCase string) int {
	if t == nil {
		return -1
	}
	return t.Start(KindAudit, "audit:"+useCase)
}

// Graft appends spans — the closed spans below another tree's root, in
// creation order, as that tree's Spans()[1:] returns them — under the
// currently open span, as if this tree had opened and closed each one
// at its recorded virtual clock. IDs continue this tree's: the source
// root's children hang from the open span and deeper parents shift
// with them. Virtual bounds are kept; wall bounds become the graft
// instant. The spans are copied, never aliased, so many trees may graft
// one sealed slice at once.
func (t *Tree) Graft(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	ns := time.Since(t.epoch).Nanoseconds()
	base := len(t.spans)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, spans...)
	for i := base; i < len(t.spans); i++ {
		s := &t.spans[i]
		s.ID = i
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base - 1
		}
		s.StartNS, s.EndNS, s.done = ns, ns, true
	}
	t.opened += len(spans)
	t.closed += len(spans)
}

// Abort force-closes every open span, innermost first, marking each
// aborted except the cell root (the cell did end; its contents were cut
// short). The failure paths — error return, recovered panic — call this
// so a salvaged tree still satisfies the closed-exactly-once invariant.
func (t *Tree) Abort() {
	if t == nil {
		return
	}
	v, ns := t.now()
	for n := len(t.stack); n > 0; n = len(t.stack) {
		id := t.stack[n-1]
		t.stack = t.stack[:n-1]
		s := &t.spans[id]
		s.EndV, s.EndNS, s.done = v, ns, true
		s.Aborted = s.Parent >= 0
		t.closed++
	}
}

// Finish closes the cell root (and anything erroneously left open
// inside it). The happy path calls this once, after the assess phase.
func (t *Tree) Finish() {
	if t == nil || len(t.spans) == 0 {
		return
	}
	t.End(0)
}

// Spans returns the tree's spans in creation (pre-)order. The slice is
// the tree's own backing store; callers must not mutate it.
func (t *Tree) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Open returns how many spans are currently open.
func (t *Tree) Open() int {
	if t == nil {
		return 0
	}
	return len(t.stack)
}

// Check verifies the tree's invariants: every opened span closed
// exactly once, virtual time monotone within each span, and every child
// contained in its parent's virtual interval. The span test suite runs
// it over every collected tree, including trees salvaged from panicking
// and chaos-faulted cells.
func (t *Tree) Check() error {
	if t == nil {
		return nil
	}
	if n := len(t.stack); n != 0 {
		return fmt.Errorf("span: %s: %d spans still open", t.cell, n)
	}
	if t.opened != t.closed {
		return fmt.Errorf("span: %s: %d spans opened, %d closed", t.cell, t.opened, t.closed)
	}
	for i := range t.spans {
		s := &t.spans[i]
		if !s.done {
			return fmt.Errorf("span: %s: span %d (%s %q) never closed", t.cell, s.ID, s.Kind, s.Name)
		}
		if s.EndV < s.StartV {
			return fmt.Errorf("span: %s: span %d (%s %q) ends at v=%d before its start v=%d",
				t.cell, s.ID, s.Kind, s.Name, s.EndV, s.StartV)
		}
		if s.Parent >= 0 {
			p := &t.spans[s.Parent]
			if s.StartV < p.StartV || s.EndV > p.EndV {
				return fmt.Errorf("span: %s: span %d (%s %q) [%d,%d] escapes parent %d [%d,%d]",
					t.cell, s.ID, s.Kind, s.Name, s.StartV, s.EndV, p.ID, p.StartV, p.EndV)
			}
		}
	}
	return nil
}
