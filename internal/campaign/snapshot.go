package campaign

import (
	"sync"
	"sync/atomic"

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
// logs); and observably, because the sealed machine's boot journal is
// replayed into each cell's telemetry recorder, fault injector and span
// tree, reproducing the exact event stream a fresh boot would emit.
// The journal is folded once per snapshot, so a fork adds its counter,
// coverage and fault-plane totals in bulk, shares the boot's events as
// its recorder's read-only prefix instead of copying them, and walks
// only the boot's span ops. A sink-write fault armed inside the boot
// window, or a ring bound that cannot hold the boot plus one event,
// restores the boot's events one by one instead (mm.Snapshot.Replay).
//
// A cell whose armed fault plane would fire inside the boot (SiteAlloc
// within the boot's consult budget) cannot fork — the fault belongs
// inside its boot — so it falls back to a fresh boot with its injector
// untouched. All other boot-reachable sites fire at hypercall dispatch
// or sink writes, which the fork path reproduces exactly.

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
	err    error
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

// build boots the prototype environment with no sinks attached but the
// boot journal recording, then seals machine and hypervisor.
func (s *envSnapshot) build(p *plan, v hv.Version, mode Mode) {
	mem, err := mm.NewMemory(MachineFrames)
	if err != nil {
		s.err = err
		return
	}
	mem.StartBootJournal()
	e, err := buildEnvironment(p, mem, v, mode, nil, nil, nil)
	if err != nil {
		s.err = err
		return
	}
	s.ms = mem.Seal(e.HV.FrameClassifier())
	s.hs = e.HV.Seal()
	s.net = e.Net
	s.guests = e.Guests
}

// forkEnvironment stamps out one cell's environment from the sealed
// state: fork the machine, attach the cell's sinks, replay the boot
// journal into them (the recorder shares the boot's events as its
// prefix, so its own ring holds only the cell's events), fork the
// hypervisor onto the machine, and rebind network and kernels. The returned recycle func returns the machine
// fork to the snapshot's pool; call it only when the cell completed
// cleanly — a poisoned fork must be abandoned to the collector.
func (s *envSnapshot) forkEnvironment(tel *telemetry.Recorder, flt *faults.Injector, tree *span.Tree) (*Environment, func(), error) {
	fm := s.ms.Fork()
	if tel != nil {
		fm.AttachTelemetry(tel)
	}
	if flt != nil {
		fm.AttachFaults(flt)
	}
	if tree != nil {
		fm.AttachSpans(tree)
	}
	// The boot journal's coverage was folded with the same region
	// classifier; the cell's own page-type events need it too.
	if cov := tel.Coverage(); cov != nil {
		cov.SetFrameClassifier(s.hs.FrameClassifier())
	}
	s.ms.Replay(tel, flt, tree)

	fh := s.hs.Fork(fm, tel, flt, tree)
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

// cellEnvironment builds one cell's environment, from the snapshot
// cache when possible and by fresh boot otherwise. The recycle func is
// non-nil only on the fork path; callers invoke it after the cell
// completes cleanly.
func cellEnvironment(p *plan, c cell, tel *telemetry.Recorder, flt *faults.Injector, tree *span.Tree) (*Environment, func(), error) {
	if SnapshotsEnabled() {
		s := snapshotFor(p, c.version, c.mode)
		// A build error falls back to fresh boot so the cell reports the
		// boot failure itself; a boot-window allocation fault must boot
		// fresh with the injector untouched so it fires inside the boot.
		if s.err == nil && !flt.WouldFire(faults.SiteAlloc, s.ms.BootAllocConsults()) {
			e, recycle, err := s.forkEnvironment(tel, flt, tree)
			if err == nil {
				return e, recycle, nil
			}
		}
	}
	e, err := newEnvironment(p, c.version, c.mode, tel, flt, tree)
	return e, nil, err
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
	return s.forkEnvironment(nil, nil, nil)
}

// BuildSnapshot boots and seals one environment outside the cache, so
// benchmarks can measure the one-time snapshot construction cost.
func BuildSnapshot(v hv.Version, mode Mode) error {
	s := &envSnapshot{mode: mode}
	s.build(campaignPlan(), v, mode)
	return s.err
}
