// Package telemetry is the hypervisor-level observability layer: a
// low-overhead, allocation-conscious event trace plus a metrics
// registry, the runtime-visibility foundation the paper's methodology
// implies (the monitor audits what the hypervisor *did*; this layer
// records it as it happens, so a diverging Table III cell can be
// diagnosed from its trace instead of a debugger session).
//
// Two kinds of state:
//
//   - Recorder — per-environment, single-goroutine (the simulator is
//     deterministic and single-threaded per environment): a bounded
//     ring of typed events and a counter map. A nil *Recorder is the
//     disabled state; every method is nil-safe and compiles to a
//     predicted-not-taken branch, so instrumented hot paths cost
//     nothing measurable when tracing is off.
//   - Registry — cross-environment aggregate, safe for concurrent use
//     by campaign workers: atomic counters and power-of-two-bucket
//     histograms.
package telemetry

import (
	"fmt"
	"sort"

	"repro/internal/coverage"
	"repro/internal/faults"
)

// Kind is the type tag of a trace event.
type Kind uint8

// Event kinds, covering the paths the campaign-cell auditors care
// about: the hypercall interface, the page-type (frame validation)
// lifecycle, page-table validation outcomes, the injector, the exploit
// scripts and the monitor's verdict evidence.
const (
	// KindHypercallEnter marks entry to the hypercall dispatcher
	// (Nr = hypercall number, Dom = calling domain).
	KindHypercallEnter Kind = iota + 1
	// KindHypercallExit marks dispatcher exit (Detail = error, if any).
	KindHypercallExit
	// KindPageTypeGet is a frame-type validation reference being taken
	// (Addr = MFN, Label = type name).
	KindPageTypeGet
	// KindPageTypePut is a frame-type reference being dropped.
	KindPageTypePut
	// KindValidationReject is a page-table entry or table promotion the
	// hypervisor's validation refused (Detail = reason).
	KindValidationReject
	// KindWalkDenied is a translation the page-walk policy vetoed even
	// though the PTE flags allowed it (the hardening path).
	KindWalkDenied
	// KindInjectorOp is one injector hypercall operation
	// (Label = action, Addr = target, Val = length).
	KindInjectorOp
	// KindInjectorState is an injector state-machine transition: the
	// abstract machine's single abusive-functionality edge, taken
	// operationally (Label = "initial->erroneous", Detail = input).
	KindInjectorState
	// KindScenarioStep is one attacker-terminal transcript line of an
	// exploit or injection script (Label = use case).
	KindScenarioStep
	// KindVerdictEvidence is one evidence line the monitor's audit
	// recorded (Label = use case).
	KindVerdictEvidence
	// KindGrantOp is a grant-table operation (Label = op).
	KindGrantOp
	// KindDomctlOp is a management-plane operation (Label = op,
	// Val = target domain).
	KindDomctlOp
)

// String returns the snake_case wire name of the kind, used in JSONL
// traces and the metrics summary.
func (k Kind) String() string {
	switch k {
	case KindHypercallEnter:
		return "hypercall_enter"
	case KindHypercallExit:
		return "hypercall_exit"
	case KindPageTypeGet:
		return "page_type_get"
	case KindPageTypePut:
		return "page_type_put"
	case KindValidationReject:
		return "validation_reject"
	case KindWalkDenied:
		return "walk_denied"
	case KindInjectorOp:
		return "injector_op"
	case KindInjectorState:
		return "injector_state"
	case KindScenarioStep:
		return "scenario_step"
	case KindVerdictEvidence:
		return "verdict_evidence"
	case KindGrantOp:
		return "grant_op"
	case KindDomctlOp:
		return "domctl_op"
	default:
		return fmt.Sprintf("kind_%d", uint8(k))
	}
}

// Event is one typed trace record. The struct is fixed-size apart from
// the two string fields; hot-path emitters pass constant strings for
// Label and leave Detail empty except on cold (error) paths, so
// emitting an event does not allocate.
type Event struct {
	// Seq is the 0-based emission index within the environment; gaps
	// never occur, so Seq also orders events across a JSONL trace.
	Seq uint64
	// Kind tags the event type.
	Kind Kind
	// Dom is the acting domain, where one is involved.
	Dom uint16
	// Nr is the hypercall number for dispatcher events.
	Nr int32
	// Addr and Val are the generic numeric operands (address, MFN,
	// length, target domain — per kind).
	Addr, Val uint64
	// Label is a short constant tag (page type, action, use case, op).
	Label string
	// Detail is free text: error strings, transcript lines, evidence.
	Detail string
}

// DefaultRingCapacity bounds a per-environment event ring. A campaign
// cell emits a few hundred events (its boot-time frame validations
// plus the scenario's hypercall activity); 16 Ki keeps entire cells
// with ample headroom while bounding a runaway workload's memory. The
// bound is not an up-front allocation: the ring grows on demand
// towards it.
const DefaultRingCapacity = 16384

// initialRingCapacity is the first allocation (or the bound, if
// smaller) of a ring that holds a whole cell's trace, boot included:
// enough for a typical campaign cell, so most cells never grow it.
const initialRingCapacity = 512

// initialTailCapacity is the first allocation of a ring behind a
// shared boot prefix (see ShareBoot), which holds only the cell's own
// events: a median campaign cell emits about a dozen.
const initialTailCapacity = 16

// Recorder is the per-environment sink: a bounded event ring, behind
// an optional shared boot prefix, plus a counter map. It is
// intentionally not safe for concurrent use — one environment is one
// goroutine, and the campaign engine gives every cell its own
// Recorder. The nil Recorder is the disabled sink: every method
// no-ops.
type Recorder struct {
	// boot is the shared, read-only boot prefix adopted from a sealed
	// snapshot (see ShareBoot): the stream's oldest events, retained
	// ahead of the ring without being copied into it.
	boot []Event
	// ring holds the retained events after boot. It is allocated on the
	// first emit and grows by doubling until boot and ring together
	// hold bound events; the ring then takes boot into itself once and
	// wraps, overwriting the oldest event in place.
	ring     []Event
	bound    int
	emitted  uint64
	counters map[string]uint64

	// flt, when armed with SiteSinkWrite, fails event writes into the
	// ring: the event is dropped and telemetry.sink_errors counts it.
	flt         *faults.Injector
	sinkDropped uint64

	// cov, when attached, accumulates coverage edges alongside the
	// ring. Coverage observes the instrumented site itself, before the
	// ring write, so sink-write faults and ring wraps never perturb
	// the coverage map — it stays deterministic under chaos.
	cov *coverage.Map
}

// AttachCoverage installs a coverage map fed by the recorder's
// instrumentation hooks. A nil map (or never calling this) leaves
// coverage disabled at zero cost.
func (r *Recorder) AttachCoverage(m *coverage.Map) {
	if r == nil {
		return
	}
	r.cov = m
}

// Coverage returns the attached coverage map, if any (nil receiver
// safe).
func (r *Recorder) Coverage() *coverage.Map {
	if r == nil {
		return nil
	}
	return r.cov
}

// AttachFaults installs the recorder's fault-injection plane. A nil
// injector (or never calling this) leaves sink faults disabled.
func (r *Recorder) AttachFaults(f *faults.Injector) {
	if r == nil {
		return
	}
	r.flt = f
}

// NewRecorder creates an enabled recorder whose stream retains at most
// n events (DefaultRingCapacity if n <= 0). The ring's memory is
// allocated on the first emit and grows with the events actually
// emitted, up to that bound.
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultRingCapacity
	}
	return &Recorder{bound: n, counters: make(map[string]uint64)}
}

// emit appends an event, overwriting the oldest once the stream holds
// bound events. An injected sink-write fault drops the event before it
// is sequenced, so Seq stays gapless across the events that do land.
func (r *Recorder) emit(e Event) {
	if r.flt.Hit(faults.SiteSinkWrite) {
		r.sinkDropped++
		r.counters["telemetry.sink_errors"]++
		return
	}
	e.Seq = r.emitted
	switch {
	case len(r.boot)+len(r.ring) == r.bound:
		if r.boot != nil {
			// The stream is full: take the shared prefix into a private
			// ring of the whole bound, once, each event in the slot its
			// Seq wraps to, so the wrap can overwrite the oldest in place.
			full := make([]Event, r.bound)
			for _, part := range [2][]Event{r.boot, r.ring} {
				for _, old := range part {
					full[old.Seq%uint64(r.bound)] = old
				}
			}
			r.ring, r.boot = full, nil
		}
		r.ring[r.emitted%uint64(r.bound)] = e
	case len(r.ring) == cap(r.ring):
		// Grow by doubling, never past the bound. The fresh array also
		// detaches the ring from any snapshot Events shared.
		start := initialRingCapacity
		if r.boot != nil {
			start = initialTailCapacity
		}
		grown := make([]Event, len(r.ring), min(max(2*cap(r.ring), start), r.bound-len(r.boot)))
		copy(grown, r.ring)
		r.ring = append(grown, e)
	default:
		r.ring = append(r.ring, e)
	}
	r.emitted++
}

// ShareBoot adopts boot — a sealed snapshot's boot events, Seq 0 to
// len(boot)-1 — as the recorder's shared, read-only prefix instead of
// emitting it: Emitted, and with it Seq and a span tree's virtual
// clock, advances to len(boot), and the prefix retains the newest
// bound of them, as a ring that had emitted them would. A fork calls it
// once, with the whole boot, before the recorder emits anything and
// before a fault plane is attached: the boot's events are the stream's
// first, and no fault counts them.
func (r *Recorder) ShareBoot(boot []Event) {
	if r == nil {
		return
	}
	n := len(boot)
	// Clipped, so an append to Boot() can never write into the snapshot.
	r.boot = boot[max(0, n-r.bound):n:n]
	r.emitted = uint64(n)
}

// Add increments a named counter by n.
func (r *Recorder) Add(name string, n uint64) {
	if r == nil {
		return
	}
	r.counters[name] += n
}

// Inc increments a named counter by one.
func (r *Recorder) Inc(name string) { r.Add(name, 1) }

// Op is one instrumented operation's wire label together with its
// counter key: Counter is "grant.map" for the grant op "map". Build
// each Op once, where the operation is declared, so recording the
// operation builds no key.
type Op struct {
	Label, Counter string
}

// NewOp builds the Op for an operation label of a counter family:
// "hypercall" for HypercallEnter/HypercallExit, "grant" for GrantOp,
// "domctl" for DomctlOp.
func NewOp(family, label string) Op { return Op{Label: label, Counter: family + "." + label} }

// HypercallEnter records dispatcher entry. op is the hypercall's
// symbolic name and its counter key ("hypercall.mmu_update").
func (r *Recorder) HypercallEnter(dom uint16, nr int32, op Op) {
	if r == nil {
		return
	}
	r.counters[op.Counter]++
	r.emit(Event{Kind: KindHypercallEnter, Dom: dom, Nr: nr, Label: op.Label})
}

// HypercallExit records dispatcher exit; err may be nil.
func (r *Recorder) HypercallExit(dom uint16, nr int32, op Op, err error) {
	if r == nil {
		return
	}
	r.cov.Hypercall(int(nr), op.Label, err != nil)
	e := Event{Kind: KindHypercallExit, Dom: dom, Nr: nr, Label: op.Label}
	if err != nil {
		r.counters["hypercall.errors"]++
		e.Detail = err.Error()
	}
	r.emit(e)
}

// PageTypeGet records a frame-type validation reference being taken.
func (r *Recorder) PageTypeGet(mfn uint64, typ string) {
	if r == nil {
		return
	}
	r.cov.PageType("get", mfn, typ)
	r.counters["pagetype.get"]++
	r.emit(Event{Kind: KindPageTypeGet, Addr: mfn, Label: typ})
}

// PageTypePut records a frame-type reference being dropped.
func (r *Recorder) PageTypePut(mfn uint64, typ string) {
	if r == nil {
		return
	}
	r.cov.PageType("put", mfn, typ)
	r.counters["pagetype.put"]++
	r.emit(Event{Kind: KindPageTypePut, Addr: mfn, Label: typ})
}

// ValidationReject records a refused page-table validation at the
// given level.
func (r *Recorder) ValidationReject(dom uint16, level int, reason string) {
	if r == nil {
		return
	}
	r.cov.ValidationReject(level, reason)
	r.counters["validation.reject"]++
	r.emit(Event{Kind: KindValidationReject, Dom: dom, Val: uint64(level), Detail: reason})
}

// WalkDenied records a policy-vetoed translation.
func (r *Recorder) WalkDenied(va uint64, reason string) {
	if r == nil {
		return
	}
	r.cov.WalkDenied(reason)
	r.counters["walk.policy_denied"]++
	r.emit(Event{Kind: KindWalkDenied, Addr: va, Detail: reason})
}

// WalkFault counts a failed translation (no event: faults are routine
// during scenario probing and would flood the ring).
func (r *Recorder) WalkFault() {
	if r == nil {
		return
	}
	r.counters["walk.fault"]++
}

// InjectorOp records one injector hypercall operation.
func (r *Recorder) InjectorOp(dom uint16, action string, addr uint64, n int) {
	if r == nil {
		return
	}
	r.cov.InjectorOp(action)
	r.counters["injector.ops"]++
	r.emit(Event{Kind: KindInjectorOp, Dom: dom, Addr: addr, Val: uint64(n), Label: action})
}

// InjectorTransition records an injector state-machine edge.
func (r *Recorder) InjectorTransition(dom uint16, from, to, input string) {
	if r == nil {
		return
	}
	r.cov.InjectorTransition(from, to, input)
	r.counters["injector.transitions"]++
	r.emit(Event{Kind: KindInjectorState, Dom: dom, Label: from + "->" + to, Detail: input})
}

// ScenarioStep records one transcript line of a running scenario.
func (r *Recorder) ScenarioStep(useCase, line string) {
	if r == nil {
		return
	}
	r.counters["scenario.steps"]++
	r.emit(Event{Kind: KindScenarioStep, Label: useCase, Detail: line})
}

// Evidence records one monitor-audit evidence line.
func (r *Recorder) Evidence(useCase, line string) {
	if r == nil {
		return
	}
	r.counters["monitor.evidence"]++
	r.emit(Event{Kind: KindVerdictEvidence, Label: useCase, Detail: line})
}

// EvidenceStateVal is the Val marker on a KindVerdictEvidence event that
// carries the monitor's affirmative erroneous-state audit — the line the
// audit writes when it confirms the state was really induced, as opposed
// to the consequence-phase (violation oracle) evidence that follows. The
// RQ2 trace-equivalence engine keys on this marker: the state audit must
// match between an exploit-induced and an injected run even when a
// hardened version absorbs the consequences.
const EvidenceStateVal uint64 = 1

// EvidenceState records the monitor's affirmative erroneous-state audit
// evidence, marked with EvidenceStateVal on the wire.
func (r *Recorder) EvidenceState(useCase, line string) {
	if r == nil {
		return
	}
	r.counters["monitor.evidence"]++
	r.emit(Event{Kind: KindVerdictEvidence, Val: EvidenceStateVal, Label: useCase, Detail: line})
}

// GrantOp records a grant-table operation.
func (r *Recorder) GrantOp(dom uint16, op Op, ref int) {
	if r == nil {
		return
	}
	r.cov.GrantOp(op.Label)
	r.counters[op.Counter]++
	r.emit(Event{Kind: KindGrantOp, Dom: dom, Val: uint64(ref), Label: op.Label})
}

// DomctlOp records a management-plane operation on a target domain.
func (r *Recorder) DomctlOp(dom uint16, op Op, target uint16) {
	if r == nil {
		return
	}
	r.cov.DomctlOp(op.Label)
	r.counters[op.Counter]++
	r.emit(Event{Kind: KindDomctlOp, Dom: dom, Val: uint64(target), Label: op.Label})
}

// Enabled reports whether the recorder is collecting (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Emitted returns the total number of events emitted, including any
// that have been overwritten in the ring.
func (r *Recorder) Emitted() uint64 {
	if r == nil {
		return 0
	}
	return r.emitted
}

// Dropped returns how many events were lost: overwritten by ring
// wraparound or dropped by an injected sink-write fault.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	if n := uint64(r.bound); r.emitted > n {
		return r.emitted - n + r.sinkDropped
	}
	return r.sinkDropped
}

// Boot returns the retained shared boot prefix (see ShareBoot), the
// stream's oldest events, ahead of those Events returns. It is the
// snapshot's own read-only slice; nil when the recorder shares none or
// a full stream has taken it into the ring.
func (r *Recorder) Boot() []Event {
	if r == nil {
		return nil
	}
	return r.boot
}

// Events returns the retained events after the shared boot prefix,
// oldest first: the whole retained stream when the recorder shares
// none. The caller must treat the slice as read-only; it never changes
// after the call.
//
// Until the stream first fills, the ring's events are an append-only
// prefix, so Events shares it instead of copying: it clips the ring's
// capacity to that prefix, which makes the next emit move the ring to
// a fresh array and leaves the snapshot's array to the caller alone.
// A full or wrapped ring is overwritten in place, so it is copied.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	if len(r.ring) < r.bound {
		r.ring = r.ring[:len(r.ring):len(r.ring)]
		return r.ring
	}
	out := make([]Event, 0, len(r.ring))
	// Once wrapped, the oldest retained event sits at the write cursor.
	cur := int(r.emitted % uint64(r.bound))
	out = append(out, r.ring[cur:]...)
	return append(out, r.ring[:cur]...)
}

// CounterValue is one named counter reading.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// Counters returns the counter readings sorted by name, so rendered
// metrics are deterministic.
func (r *Recorder) Counters() []CounterValue {
	if r == nil {
		return nil
	}
	out := make([]CounterValue, 0, len(r.counters))
	for name, v := range r.counters {
		out = append(out, CounterValue{Name: name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Counter returns one counter's current value.
func (r *Recorder) Counter(name string) uint64 {
	if r == nil {
		return 0
	}
	return r.counters[name]
}

// CellProfile is the per-campaign-cell telemetry snapshot the runner
// records: identity, wall time, final counters and the retained events.
// Counters are deterministic for a given cell at any worker count; wall
// time is the only nondeterministic field.
//
// The retained stream is Boot followed by Events. A cell forked from a
// snapshot shares its boot's page-type events as Boot and holds only
// its own events in Events, until its stream outgrows the ring's bound;
// a freshly booted cell has no Boot and the whole stream in Events.
// Consumers of the whole stream (JSONL traces, flight dumps, event
// counts) walk both; boot events are never effect events, so effect
// readers need only Events.
type CellProfile struct {
	// Cell identifies the run as "version/use-case/mode".
	Cell string `json:"cell"`
	// WallNS is the cell's wall-clock time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// Counters are the cell's final counter readings, sorted by name.
	Counters []CounterValue `json:"counters"`
	// DroppedEvents counts the events of the whole stream that were
	// lost to ring overwrites or sink faults (0 = the trace is
	// complete).
	DroppedEvents uint64 `json:"dropped_events,omitempty"`
	// Boot is the retained shared boot prefix, oldest first: the
	// snapshot's read-only slice, shared by every fork of it.
	Boot []Event `json:"-"`
	// Events is the retained rest of the trace, oldest first. Boot and
	// Events are exported to JSONL trace files, not to the campaign
	// JSON artifact.
	Events []Event `json:"-"`
}

// Profile snapshots the recorder into a cell profile.
func (r *Recorder) Profile(cell string, wallNS int64) *CellProfile {
	if r == nil {
		return nil
	}
	return &CellProfile{
		Cell:          cell,
		WallNS:        wallNS,
		Counters:      r.Counters(),
		DroppedEvents: r.Dropped(),
		Boot:          r.boot,
		Events:        r.Events(),
	}
}
