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
// restores into its cell's sinks. A fork adopts the prefix in four bulk
// steps and re-enacts none of it: it adds the counter totals, merges the
// coverage (and with it the boot's region classifier), shares the events
// as the recorder's read-only prefix, and grafts the closed boot spans
// under the cell's boot phase.
//
// A cleanly completed cell returns its whole environment — machine
// fork, hypervisor with its domains, vCPUs, TLBs and P2Ms, guest
// kernels and network — to one pool on its snapshot. Returning it
// resets every layer to the sealed state in place (the layers' Reset
// methods) and detaches every per-cell sink and fault plane, so the
// pool holds no cell's recorder, span tree or injector. A reset keeps
// what the environment allocated: frame buffers, P2M and TLB maps,
// grant tables and event channels. The handler tables are not per
// environment at all: every fork dispatches hypercalls through its
// sealed build's table, injector included, whose handlers reach the
// fork through the calling domain, and traps through one shared table
// that the fork's Builtin binds. A fork takes a pooled environment, or
// builds a new one whose layers go through the same Reset, and
// attaches the cell's sinks. A cell that errs, panics, hangs, wedges
// or is cancelled abandons its environment to the collector instead.
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

// envSnapshot is one sealed (version, mode) environment and the pool
// of reset environments forked from it.
type envSnapshot struct {
	once   sync.Once
	mode   Mode
	ms     *mm.Snapshot
	hs     *hv.Snapshot
	net    *vnet.Network
	guests []*guest.Kernel
	boot   bootPrefix
	err    error

	mu   sync.Mutex
	pool []*Environment
}

// bootPrefix is what the snapshot's boot put into its sinks, kept once
// per snapshot so every fork can restore it into its cell's sinks.
type bootPrefix struct {
	// counters and cov are the recorder's counter readings and coverage
	// map at the end of the boot.
	counters []telemetry.CounterValue
	cov      *coverage.Map
	// events are the boot's events in order, the read-only prefix every
	// fork's recorder shares, and spans the closed spans below the boot
	// tree's root in creation order, which every fork's tree grafts.
	events []telemetry.Event
	spans  []span.Span
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
		spans:    append([]span.Span(nil), tree.Spans()[1:]...),
	}
	s.ms = e.HV.Memory().Seal()
	s.hs = e.HV.Seal()
	s.net = e.Net
	s.guests = e.Guests
}

// restore puts in a cell's sinks exactly the counter readings, coverage
// edges, event stream and span structure a fresh boot would have
// produced, in bulk. The coverage merge carries the boot's region
// classifier to the cell's map. The events are shared, not copied: the
// recorder adopts them as its read-only prefix (Recorder.ShareBoot),
// which advances Seq and the span tree's virtual clock past them. The
// spans are grafted under the open boot phase with their recorded
// virtual bounds. Both sinks are nil-safe; with neither attached the
// restore is skipped entirely.
func (b *bootPrefix) restore(tel *telemetry.Recorder, tree *span.Tree) {
	if tel == nil && tree == nil {
		return
	}
	for _, c := range b.counters {
		tel.Add(c.Name, c.Value)
	}
	tel.Coverage().Merge(b.cov)
	tel.ShareBoot(b.events)
	tree.Graft(b.spans)
}

// forkEnvironment stamps out one cell's environment from the sealed
// state: restore the boot prefix into the cell's sinks (the recorder
// shares the boot's events instead of copying them, so its own ring
// holds only the cell's events), take a pooled environment (or build a
// new one), and attach the sinks to it. The returned recycle func
// resets the environment and returns it to the pool; call it only when
// the cell completed cleanly — a poisoned environment must be abandoned
// to the collector.
func (s *envSnapshot) forkEnvironment(tel *telemetry.Recorder, tree *span.Tree) (*Environment, func(), error) {
	s.boot.restore(tel, tree)
	e, err := s.take()
	if err != nil {
		return nil, nil, err
	}
	e.HV.AttachSinks(tel, tree)
	return e, func() { s.recycle(e) }, nil
}

// take pops a pooled environment, or builds a new one when the pool is
// empty. Either way the environment is in the sealed state with no
// sinks attached.
func (s *envSnapshot) take() (*Environment, error) {
	s.mu.Lock()
	var e *Environment
	if n := len(s.pool); n > 0 {
		e = s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
	}
	s.mu.Unlock()
	if e != nil {
		return e, nil
	}
	return s.fork()
}

// fork builds a new environment from the sealed state: fork the
// machine, fork the hypervisor onto it, and fork network and kernels.
// An injection build's fork dispatches the injector hypercalls through
// the table the boot registered them in.
func (s *envSnapshot) fork() (*Environment, error) {
	fh := s.hs.Fork(s.ms.Fork())
	net := s.net.Fork()
	e := &Environment{HV: fh, Net: net}
	for _, pk := range s.guests {
		d, err := fh.Domain(pk.Domain().ID())
		if err != nil {
			return nil, err
		}
		e.Guests = append(e.Guests, pk.ForkOnto(d, net))
	}
	e.Dom0 = e.Guests[0]
	e.Attacker = e.Guests[len(e.Guests)-1]
	l, ok := net.Listener(ListenerAddr)
	if !ok {
		// The sealed environment always bound the listener; a miss means
		// the snapshot is unusable.
		return nil, vnet.ErrRefused
	}
	e.Listener = l
	if s.mode == ModeInjection {
		e.Injector = inject.NewClient(e.Attacker.Domain())
		e.State = inject.NewStateClient(e.Attacker.Domain())
	}
	return e, nil
}

// recycle resets a cleanly completed cell's environment to the sealed
// state in place — machine, hypervisor, network, kernels — detaching
// every sink and fault plane, and returns it to the pool.
func (s *envSnapshot) recycle(e *Environment) {
	s.ms.Reset(e.HV.Memory())
	s.hs.Reset(e.HV)
	e.Net.Reset()
	for _, k := range e.Guests {
		k.Reset()
	}
	// A cell may have closed the listener; the reset bound a new one.
	e.Listener, _ = e.Net.Listener(ListenerAddr)
	s.mu.Lock()
	s.pool = append(s.pool, e)
	s.mu.Unlock()
}

// poolSize reports how many reset environments await reuse.
func (s *envSnapshot) poolSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pool)
}

// cellEnvironment builds one cell's environment, by fork from the
// snapshot cache or, under -no-snapshot, by fresh boot, and only then
// attaches the cell's fault plane to the hypervisor, the machine and the
// recorder. A snapshot build or fork error is the cell's error: the
// sinks may already hold the boot prefix, so the cell never boots a
// second time. Callers invoke the recycle func after the cell completes
// cleanly; a fresh boot's does nothing.
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
		recycle = func() {}
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
// snapshot toggle. The examples take their environments from it and
// the benchmarks measure the fork path in isolation with it; the
// recycle func resets the environment and returns it to the pool.
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
