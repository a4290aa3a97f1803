package hv

import (
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
	// doms are the prototype's domains in ID order; a fork's shell
	// domains are index-aligned with them.
	doms []*Domain
}

// Seal captures the hypervisor as the prototype for forks. Call it
// after the full environment (domains, guests, listeners) is built and
// the machine has been sealed.
func (h *Hypervisor) Seal() *Snapshot { return &Snapshot{proto: h, doms: h.DomainList()} }

// Fork stamps out a per-cell hypervisor instance on a forked machine
// (a fork of the machine the prototype was sealed on). It builds the
// fork's shell — the walker, builder, and per domain the P2M view, TLB
// and vCPU — and then resets it to the prototype's state (see Reset).
// The fork dispatches hypercalls through the prototype's table and
// traps through the shared builtin table; their handlers reach the
// fork through the calling domain or Builtin, never the prototype. The
// fork starts with no telemetry, span or fault sinks; attach the
// cell's own with AttachSinks and AttachFaults.
func (s *Snapshot) Fork(mem *mm.Memory) *Hypervisor {
	p := s.proto
	h := &Hypervisor{
		mem:        mem,
		snap:       s,
		domains:    make(map[mm.DomID]*Domain, len(s.doms)),
		hypercalls: p.hypercalls,
	}
	h.walker = pagetable.NewWalker(mem, p.policy)
	h.builder = pagetable.NewBuilder(mem, func() (mm.MFN, error) { return mem.Alloc(mm.DomXen) })
	h.shell = make([]*Domain, len(s.doms))
	for i, pd := range s.doms {
		d := &Domain{hv: h, p2m: pd.p2m.ForkOnto(mem), tlb: pagetable.NewTLB(p.cfg.tlbCapacity)}
		d.vcpu = cpu.New(pd.vcpu.ID(), mem, &domainSpace{h: h, d: d}, h)
		h.shell[i] = d
	}
	s.Reset(h)
	return h
}

// Reset returns a fork of this snapshot to the prototype's state in
// place, so its shell can serve another cell. Immutable structure
// (layout, policy, shared-table addresses, IDT geometry) is shared with
// the prototype again; the console is clip-shared with the prototype's;
// each domain's P2M and page-table map read the prototype's again; the
// domain table lists exactly the prototype's domains, whatever the cell
// created or destroyed. Reset keeps what the shell allocated: the
// walker and builder, the vCPUs, Logf's line buffer, and the grant
// tables, event channels, P2M clones and TLB storage the last cell
// built, which are cleared instead of reallocated. The telemetry, span
// and fault sinks are detached. Reset the fork's machine with
// mm.Snapshot.Reset as well; Reset panics on a hypervisor that is not a
// fork of s.
func (s *Snapshot) Reset(h *Hypervisor) {
	if h == nil || h.snap != s {
		panic("hv: Reset of a hypervisor that is not a fork of this snapshot")
	}
	p := s.proto
	h.version = p.version
	h.cfg = p.cfg
	h.cfg.tel, h.cfg.spans, h.cfg.flt = nil, nil, nil
	h.layout, h.policy = p.layout, p.policy
	h.hvTextBase, h.heapBase = p.hvTextBase, p.heapBase
	h.xenL4, h.xenL3, h.aliasL2 = p.xenL4, p.xenL3, p.aliasL2
	h.idtr = p.idtr
	h.nextDomID, h.nextCPUID = p.nextDomID, p.nextCPUID
	// Clip the shared boot console so a fork's appends reallocate
	// instead of scribbling over the prototype's backing array.
	h.console = p.console[:len(p.console):len(p.console)]
	h.crashed, h.crashMsg, h.hung = p.crashed, p.crashMsg, p.hung
	h.pfCount, h.clockTicks = p.pfCount, p.clockTicks
	h.walker.AttachTelemetry(nil)
	clear(h.domains)
	for i, pd := range s.doms {
		d := h.shell[i]
		d.resetTo(pd)
		h.domains[d.id] = d
	}
}

// resetTo returns a fork's shell domain to the prototype domain pd.
func (d *Domain) resetTo(pd *Domain) {
	d.id, d.name, d.privileged = pd.id, pd.name, pd.privileged
	d.p2m.Reset()
	d.base, d.frames, d.cr3 = pd.base, pd.frames, pd.cr3
	d.ptFrames, d.ptShared = pd.ptFrames, true
	d.nextFreePFN, d.ptLowestPFN = pd.nextFreePFN, pd.ptLowestPFN
	// Grant tables and event channels are built lazily on first use and
	// are nil at seal time; a kept one is cleared to the state its
	// lazy build starts from.
	if gt := d.grantTable; gt != nil {
		*gt = grantTable{version: 1, statusFrames: gt.statusFrames[:0]}
	}
	for i := range d.eventChannels {
		d.eventChannels[i] = eventChannel{remoteDom: -1}
	}
	d.tlb.Reset()
	d.vcpu.LIDT(d.hv.idtr)
	d.destroyed, d.paused = pd.destroyed, pd.paused
}

// AttachSinks installs a cell's telemetry recorder and span tree on a
// fork and its machine, as WithTelemetry and WithSpans install them on
// a fresh build; nil detaches either. Coverage rides on the recorder;
// its map takes the boot's region classifier when it merges the boot's
// coverage, so fork-path classification matches a fresh boot.
func (h *Hypervisor) AttachSinks(tel *telemetry.Recorder, spans *span.Tree) {
	h.cfg.tel, h.cfg.spans = tel, spans
	h.walker.AttachTelemetry(tel)
	h.mem.AttachTelemetry(tel)
	h.mem.AttachSpans(spans)
}
