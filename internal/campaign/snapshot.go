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
// replayed into each cell's telemetry recorder and span tree,
// reproducing the exact event stream a fresh boot would emit. The
// journal is folded once per snapshot, so a fork adds its counter and
// coverage totals in bulk, shares the boot's events as its recorder's
// read-only prefix instead of copying them, and walks only the boot's
// span ops.
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
	e, err := buildEnvironment(p, mem, v, mode, nil, nil)
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
	// The boot journal's coverage was folded with the same region
	// classifier; the cell's own page-type events need it too.
	if cov := tel.Coverage(); cov != nil {
		cov.SetFrameClassifier(s.hs.FrameClassifier())
	}
	s.ms.Replay(tel, tree)

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

// cellEnvironment builds one cell's environment, from the snapshot
// cache when possible and by fresh boot under -no-snapshot or when the
// snapshot build or the fork fails, and only then attaches the cell's
// fault plane to the hypervisor, the machine and the recorder. The
// recycle func is non-nil only on the fork path; callers invoke it
// after the cell completes cleanly.
func cellEnvironment(p *plan, c cell, tel *telemetry.Recorder, flt *faults.Injector, tree *span.Tree) (*Environment, func(), error) {
	var (
		e       *Environment
		recycle func()
	)
	if SnapshotsEnabled() {
		// A build error falls back to fresh boot so the cell reports the
		// boot failure itself.
		if s := snapshotFor(p, c.version, c.mode); s.err == nil {
			e, recycle, _ = s.forkEnvironment(tel, tree)
		}
	}
	if e == nil {
		var err error
		if e, err = newEnvironment(p, c.version, c.mode, tel, tree); err != nil {
			return nil, nil, err
		}
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
