package campaign

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/coverage"
	"repro/internal/faults"
	"repro/internal/guest"
	"repro/internal/hv"
	"repro/internal/inject"
	"repro/internal/mm"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/vnet"
)

// Snapshot/COW cell boot: the campaign engine boots each (version, mode)
// environment exactly once per process, seals the booted machine and
// hypervisor build into an immutable snapshot, and stamps out a
// copy-on-write fork per cell instead of re-booting. The paper's
// "fresh, identical environment per cell" guarantee is preserved two
// ways: structurally, because every mutable structure clones before its
// first write (mm COW chunks, P2M maps, page-table maps, clip-shared
// logs); and observably, because the snapshot boots into the same sinks
// a fresh cell boot drives — a recorder with a coverage map and a span
// tree — and keeps what they hold as its boot prefix, which every fork
// restores into its cell's sinks. A fork adds the prefix's counter and
// coverage totals in bulk, shares its events as the recorder's
// read-only prefix instead of copying them, and walks only its spans.
//
// The fault plane starts at the fork point: a cell's injector is
// attached once its environment exists, on the fork path and the
// fresh-boot path alike, so no trigger ever counts a boot consult and
// the two paths fault the cell identically. The boot is the sealed,
// fault-free environment every cell starts from; chaos faults the
// cell's own scenario.

// snapshotsOff gates the cache process-wide; the CLI's -no-snapshot
// flag sets it to force every cell onto the fresh-boot path.
var snapshotsOff atomic.Bool

// EnableSnapshots toggles snapshot/COW cell boot process-wide.
func EnableSnapshots(on bool) { snapshotsOff.Store(!on) }

// SnapshotsEnabled reports whether cells boot from snapshots.
func SnapshotsEnabled() bool { return !snapshotsOff.Load() }

// snapKey identifies one snapshot: the full version profile (not just
// its name — Runner.RunContext accepts custom Version values) plus the
// mode, which decides whether the injector hypercall is compiled in.
type snapKey struct {
	version hv.Version
	mode    Mode
}

// envSnapshot is one sealed (version, mode) environment.
type envSnapshot struct {
	once   sync.Once
	mode   Mode
	ms     *mm.Snapshot
	hs     *hv.Snapshot
	net    *vnet.Network
	guests []*guest.Kernel
	boot   bootPrefix
	err    error
}

// bootPrefix is what the snapshot's boot put into its sinks, kept once
// per snapshot so every fork can restore it into its cell's sinks.
type bootPrefix struct {
	// counters and cov are the recorder's counter readings and coverage
	// map at the end of the boot.
	counters []telemetry.CounterValue
	cov      *coverage.Map
	// events are the boot's events in order, the read-only prefix every
	// fork's recorder shares, and spans the opens and closes of the
	// boot's spans in the same order.
	events []telemetry.Event
	spans  []spanOp
}

// spanOp is one boot span open or close, which the boot performed once
// `at` of its events had been emitted.
type spanOp struct {
	at   uint64
	kind span.Kind
	name string
	open bool
}

var (
	snapMu    sync.Mutex
	snapCache = make(map[snapKey]*envSnapshot)
)

// snapshotFor returns the sealed environment for the key, booting and
// sealing it on first use. Concurrent workers share one build.
func snapshotFor(p *plan, v hv.Version, mode Mode) *envSnapshot {
	key := snapKey{version: v, mode: mode}
	snapMu.Lock()
	s, ok := snapCache[key]
	if !ok {
		s = &envSnapshot{mode: mode}
		snapCache[key] = s
	}
	snapMu.Unlock()
	s.once.Do(func() { s.build(p, v, mode) })
	return s
}

// build boots the prototype environment into a recorder with a coverage
// map and a span tree, as a fresh cell boot does, keeps what they hold
// as the boot prefix, then seals machine and hypervisor. The recorder
// must retain every boot event, since forks share them as their prefix.
func (s *envSnapshot) build(p *plan, v hv.Version, mode Mode) {
	rec := telemetry.NewRecorder(0)
	rec.AttachCoverage(coverage.NewMap())
	tree := span.NewTree("", rec.Emitted)
	e, err := newEnvironment(p, v, mode, rec, tree)
	if err != nil {
		s.err = err
		return
	}
	if n := rec.Dropped(); n > 0 {
		s.err = fmt.Errorf("campaign: snapshot boot dropped %d of %d events", n, rec.Emitted())
		return
	}
	s.boot = bootPrefix{
		counters: rec.Counters(),
		cov:      rec.Coverage(),
		events:   rec.Events(),
		spans:    flattenSpans(tree.Spans()),
	}
	s.ms = e.HV.Memory().Seal()
	s.hs = e.HV.Seal()
	s.net = e.Net
	s.guests = e.Guests
}

// flattenSpans turns the spans below a tree's root, in creation order,
// into the ordered opens and closes that built them.
func flattenSpans(spans []span.Span) []spanOp {
	var ops []spanOp
	var open []int
	closeTo := func(parent int) {
		for n := len(open); n > 0 && open[n-1] != parent; n = len(open) {
			ops = append(ops, spanOp{at: spans[open[n-1]].EndV})
			open = open[:n-1]
		}
	}
	for _, sp := range spans[1:] {
		closeTo(sp.Parent)
		ops = append(ops, spanOp{at: sp.StartV, kind: sp.Kind, name: sp.Name, open: true})
		open = append(open, sp.ID)
	}
	closeTo(0)
	return ops
}

// replay reproduces in a cell's sinks exactly the event stream, counter
// readings, coverage edges and span structure a fresh boot would have
// produced. The counters and the coverage map go in bulk. The events
// are shared, not copied: the recorder adopts them as its read-only
// prefix (Recorder.ShareBoot), which advances Seq and the span tree's
// virtual clock past them, and the spans open and close at their
// recorded clock. Both sinks are nil-safe; with neither attached the
// replay is skipped entirely.
func (b *bootPrefix) replay(tel *telemetry.Recorder, tree *span.Tree) {
	if tel == nil && tree == nil {
		return
	}
	for _, c := range b.counters {
		tel.Add(c.Name, c.Value)
	}
	tel.Coverage().Merge(b.cov)
	var stack []int
	for _, op := range b.spans {
		tel.ShareBoot(b.events[:op.at])
		if op.open {
			stack = append(stack, tree.Start(op.kind, op.name))
		} else if n := len(stack); n > 0 {
			tree.End(stack[n-1])
			stack = stack[:n-1]
		}
	}
	tel.ShareBoot(b.events)
}

// forkEnvironment stamps out one cell's environment from the sealed
// state: fork the machine, attach the cell's sinks, replay the boot
// prefix into them (the recorder shares the boot's events instead of
// copying them, so its own ring holds only the cell's events), fork the
// hypervisor onto the machine, and rebind network and kernels. The
// returned recycle func returns the machine fork to the snapshot's
// pool; call it only when the cell completed cleanly — a poisoned fork
// must be abandoned to the collector.
func (s *envSnapshot) forkEnvironment(tel *telemetry.Recorder, tree *span.Tree) (*Environment, func(), error) {
	fm := s.ms.Fork()
	if tel != nil {
		fm.AttachTelemetry(tel)
	}
	if tree != nil {
		fm.AttachSpans(tree)
	}
	// The cell's own page-type events need the region classifier the
	// boot's coverage was recorded with.
	if cov := tel.Coverage(); cov != nil {
		cov.SetFrameClassifier(s.hs.FrameClassifier())
	}
	s.boot.replay(tel, tree)

	fh := s.hs.Fork(fm, tel, tree)
	if s.mode == ModeInjection {
		if err := inject.Attach(fh); err != nil {
			return nil, nil, err
		}
		if err := inject.AttachStateOps(fh); err != nil {
			return nil, nil, err
		}
	}
	net := s.net.Fork()

	e := &Environment{HV: fh, Net: net, Tel: tel}
	for _, pk := range s.guests {
		d, err := fh.Domain(pk.Domain().ID())
		if err != nil {
			return nil, nil, err
		}
		e.Guests = append(e.Guests, pk.ForkOnto(d, net))
	}
	e.Dom0 = e.Guests[0]
	e.Attacker = e.Guests[len(e.Guests)-1]
	l, ok := net.Listener(ListenerAddr)
	if !ok {
		// The sealed environment always bound the listener; a miss means
		// the snapshot is unusable.
		return nil, nil, vnet.ErrRefused
	}
	e.Listener = l
	if s.mode == ModeInjection {
		e.Injector = inject.NewClient(e.Attacker.Domain())
		e.State = inject.NewStateClient(e.Attacker.Domain())
	}
	return e, func() { s.ms.Recycle(fm) }, nil
}

// cellEnvironment builds one cell's environment, by fork from the
// snapshot cache or, under -no-snapshot, by fresh boot, and only then
// attaches the cell's fault plane to the hypervisor, the machine and the
// recorder. A snapshot build or fork error is the cell's error: the
// sinks may already hold the boot prefix, so the cell never boots a
// second time. The recycle func is non-nil only on the fork path;
// callers invoke it after the cell completes cleanly.
func cellEnvironment(p *plan, c cell, tel *telemetry.Recorder, flt *faults.Injector, tree *span.Tree) (*Environment, func(), error) {
	var (
		e       *Environment
		recycle func()
		err     error
	)
	if SnapshotsEnabled() {
		s := snapshotFor(p, c.version, c.mode)
		if err = s.err; err == nil {
			if e, recycle, err = s.forkEnvironment(tel, tree); err != nil {
				err = fmt.Errorf("campaign: forking the sealed environment: %w", err)
			}
		}
	} else {
		e, err = newEnvironment(p, c.version, c.mode, tel, tree)
	}
	if err != nil {
		return nil, nil, err
	}
	e.HV.AttachFaults(flt)
	tel.AttachFaults(flt)
	return e, recycle, nil
}

// NewForkedEnvironment boots (once) and forks the standard environment
// for the given cell coordinates, regardless of the process-wide
// snapshot toggle. The benchmarks use it to measure the fork path in
// isolation; the recycle func returns the fork to the pool.
func NewForkedEnvironment(v hv.Version, mode Mode) (*Environment, func(), error) {
	s := snapshotFor(campaignPlan(), v, mode)
	if s.err != nil {
		return nil, nil, s.err
	}
	return s.forkEnvironment(nil, nil)
}

// BuildSnapshot boots and seals one environment outside the cache, so
// benchmarks can measure the one-time snapshot construction cost.
func BuildSnapshot(v hv.Version, mode Mode) error {
	s := &envSnapshot{mode: mode}
	s.build(campaignPlan(), v, mode)
	return s.err
}
