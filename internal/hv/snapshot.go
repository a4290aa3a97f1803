package hv

import (
	"repro/internal/coverage"
	"repro/internal/cpu"
	"repro/internal/mm"
	"repro/internal/pagetable"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// Snapshot is a sealed hypervisor build: the booted instance becomes an
// immutable prototype from which per-cell forks are stamped out. The
// prototype must never be driven again — its machine has been sealed by
// mm.Seal, and every fork shares its structural state.
type Snapshot struct {
	proto *Hypervisor
}

// Seal captures the hypervisor as the prototype for forks. Call it
// after the full environment (domains, guests, listeners) is built and
// the machine has been sealed.
func (h *Hypervisor) Seal() *Snapshot { return &Snapshot{proto: h} }

// FrameClassifier returns the prototype's coverage region classifier.
// Forks share the prototype's reservation bases, so the classifier is
// valid for every cell stamped from this snapshot; the campaign folds
// the boot journal's coverage with it and installs it on each cell's
// coverage map.
func (s *Snapshot) FrameClassifier() coverage.FrameClassifier {
	return s.proto.FrameClassifier()
}

// Fork stamps out a per-cell hypervisor instance on a forked machine.
// Immutable structure (layout, policy, shared-table addresses, IDT
// geometry) is shared with the prototype; everything mutable is either
// freshly built (handler closures, walker, builder, TLBs, vCPUs) or
// cloned copy-on-write (per-domain P2M and page-table maps). The given
// per-cell sinks replace the prototype's; the fork starts with no fault
// plane (see AttachFaults).
func (s *Snapshot) Fork(mem *mm.Memory, tel *telemetry.Recorder, spans *span.Tree) *Hypervisor {
	p := s.proto
	h := &Hypervisor{
		mem:     mem,
		version: p.version,
		cfg:     p.cfg,

		layout: p.layout,
		policy: p.policy,

		hvTextBase: p.hvTextBase,
		heapBase:   p.heapBase,
		xenL4:      p.xenL4,
		xenL3:      p.xenL3,
		aliasL2:    p.aliasL2,

		idtr:     p.idtr,
		builtins: make(map[uint64]cpu.BuiltinHandler),

		domains:   make(map[mm.DomID]*Domain),
		nextDomID: p.nextDomID,
		nextCPUID: p.nextCPUID,

		hypercalls: make(map[int]Hypercall),

		// Clip the shared boot console so a fork's appends reallocate
		// instead of scribbling over the prototype's backing array.
		console:    p.console[:len(p.console):len(p.console)],
		crashed:    p.crashed,
		crashMsg:   p.crashMsg,
		hung:       p.hung,
		pfCount:    p.pfCount,
		clockTicks: p.clockTicks,
	}
	// Coverage rides on tel; the campaign installed its classifier (via
	// FrameClassifier) before replaying the boot journal, so fork-path
	// classification matches fresh boot.
	h.cfg.tel = tel
	h.cfg.spans = spans

	// Handlers close over their hypervisor, so each fork installs its
	// own set; sharing the prototype's closures would route a fork's
	// traps and hypercalls into the prototype.
	h.installBuiltins()
	h.registerCoreHypercalls()

	// Walker and builder are cheap stateless shells over the machine;
	// rebuild them on the fork's machine with the fork's sinks.
	h.walker = pagetable.NewWalker(mem, h.policy)
	if tel != nil {
		h.walker.AttachTelemetry(tel)
	}
	h.builder = pagetable.NewBuilder(mem, func() (mm.MFN, error) { return mem.Alloc(mm.DomXen) })

	for _, pd := range p.DomainList() {
		d := &Domain{
			id:         pd.id,
			name:       pd.name,
			privileged: pd.privileged,
			hv:         h,
			p2m:        pd.p2m.ForkOnto(mem),
			base:       pd.base,
			frames:     pd.frames,
			cr3:        pd.cr3,
			ptFrames:   pd.ptFrames,
			ptShared:   true,

			nextFreePFN: pd.nextFreePFN,
			ptLowestPFN: pd.ptLowestPFN,

			tlb: pagetable.NewTLB(h.cfg.tlbCapacity),

			destroyed: pd.destroyed,
			paused:    pd.paused,
		}
		// Grant tables and event channels are built lazily on first use
		// and are nil at seal time, so forks start from nil too.
		d.vcpu = cpu.New(pd.vcpu.ID(), mem, &domainSpace{h: h, d: d}, h)
		d.vcpu.LIDT(h.idtr)
		h.domains[d.id] = d
	}
	return h
}
