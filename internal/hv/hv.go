package hv

import (
	"fmt"
	"maps"
	"strings"

	"repro/internal/coverage"
	"repro/internal/cpu"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/mm"
	"repro/internal/pagetable"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// Boot-time machine layout constants. The hypervisor reserves its own
// frames first, so their machine addresses are deterministic — the same
// property real exploits rely on when they hardcode per-version offsets.
const (
	// hvTextFrames is the size of the hypervisor text/data region.
	hvTextFrames = 16
	// xenHeapFrames is the size of the Xen heap, the anonymous
	// hypervisor-owned memory the XSA-212-priv payload hides in.
	xenHeapFrames = 32

	// idtFrameOffset places the IDT in the second hv-text frame.
	idtFrameOffset = 1

	// XenL4Slot is the guest L4 slot through which all shared hypervisor
	// structures are reachable (the architectural slot for
	// 0xffff8000_00000000).
	XenL4Slot = 256

	// AliasL3Index is the index in the shared Xen L3 serving the
	// linear-page-table alias region (VA layout.LinearPTBase).
	AliasL3Index = 256

	// MiscL3Index is an index in the shared Xen L3 with no boot-time
	// mapping, directly above the alias window: the "target PUD" slot
	// the XSA-212-priv attack links its forged page directory into.
	MiscL3Index = AliasL3Index + 1

	// GuestPhysmapBase is where guest kernels map their pseudo-physical
	// memory (the Linux-style physmap the XSA-148 exploit logs show as
	// ffff8800_xxxxxxxx addresses).
	GuestPhysmapBase = 0xffff880000000000
)

// Builtin trap-handler pseudo-addresses inside hv-text. They are never
// executed as payload bytes; the CPU resolves them through the builtin
// registry, modeling native handler code.
const (
	pfHandlerVA = layout.HypervisorVirtStart + 2*mm.PageSize + 0x10
	dfHandlerVA = layout.HypervisorVirtStart + 2*mm.PageSize + 0x20
	gpHandlerVA = layout.HypervisorVirtStart + 2*mm.PageSize + 0x30
)

// GuestOS is the view the hypervisor has of an attached guest operating
// system, used by ring-0 payload execution to produce its cross-domain
// effects. The guest package implements it.
type GuestOS interface {
	// Hostname returns the guest's hostname.
	Hostname() string
	// WriteFileAsRoot creates path with content, owned by root.
	WriteFileAsRoot(path, content string) error
	// ReverseShellAsRoot dials addr and serves a root shell.
	ReverseShellAsRoot(addr string) error
}

// Option configures hypervisor construction.
type Option func(*config)

type config struct {
	tlbCapacity int
	tel         *telemetry.Recorder
	flt         *faults.Injector
	spans       *span.Tree
}

// defaultTLBCapacity is the per-vCPU translation-cache size.
const defaultTLBCapacity = 64

// WithTLBCapacity sets the per-vCPU TLB size; zero disables translation
// caching (used by the TLB ablation benchmark).
func WithTLBCapacity(n int) Option { return func(c *config) { c.tlbCapacity = n } }

// WithTelemetry installs the environment's telemetry recorder on the
// build: hypercall dispatch, page-type transitions, validation rejects
// and grant/domctl activity are traced into it, and the machine and
// page walker are wired to the same sink. A nil recorder (the default)
// keeps telemetry disabled at near-zero cost.
func WithTelemetry(r *telemetry.Recorder) Option { return func(c *config) { c.tel = r } }

// WithSpans installs the cell's causal span tree on the build: every
// hypercall dispatch and machine range allocation opens a span in it,
// and the monitor nests its audit pass under the assess phase. A nil
// tree (the default) keeps span capture disabled at the cost of one
// predicted branch per instrumented site.
func WithSpans(t *span.Tree) Option { return func(c *config) { c.spans = t } }

// Hypervisor is one booted instance of the simulated PV hypervisor.
type Hypervisor struct {
	mem     *mm.Memory
	version Version
	cfg     config

	layout  *layout.Map
	walker  *pagetable.Walker
	builder *pagetable.Builder
	policy  pagetable.Policy

	hvTextBase mm.MFN
	heapBase   mm.MFN
	xenL4      mm.MFN
	xenL3      mm.MFN
	aliasL2    mm.MFN

	idtr cpu.IDTR

	domains   map[mm.DomID]*Domain
	nextDomID mm.DomID
	nextCPUID int

	// hypercalls is the build's dispatch table: a copy of
	// coreHypercalls plus what the build registered, shared read-only
	// by every fork of its snapshot.
	hypercalls map[int]Hypercall

	console    []string
	logBuf     []byte // Logf's line scratch, reused across lines and cells
	crashed    bool
	crashMsg   string
	hung       bool
	pfCount    int
	clockTicks int

	// snap and shell are set on a snapshot fork: the snapshot it resets
	// to, and its own domain objects, index-aligned with the
	// snapshot's, which a reset re-lists whatever the cell destroyed.
	snap  *Snapshot
	shell []*Domain
}

// New boots a hypervisor of the given version on the machine. The
// machine must be large enough for the hypervisor's own reservations
// (text, heap, shared page tables) plus whatever domains will be built.
func New(mem *mm.Memory, version Version, opts ...Option) (*Hypervisor, error) {
	h := &Hypervisor{
		mem:        mem,
		version:    version,
		domains:    make(map[mm.DomID]*Domain),
		hypercalls: maps.Clone(coreHypercalls),
	}
	h.cfg.tlbCapacity = defaultTLBCapacity
	for _, opt := range opts {
		opt(&h.cfg)
	}
	if err := h.boot(); err != nil {
		return nil, fmt.Errorf("hv: boot failed: %w", err)
	}
	return h, nil
}

// AttachFaults arms the substrate fault-injection plane on a booted
// build, so the boot itself is never faulted: the hypercall dispatcher
// consults it for injected handler panics, forced hang states and
// wedges, and the machine consults it for forced allocation failures.
// A nil injector (the default) keeps the plane disabled at the cost of
// one predicted branch per instrumented site.
func (h *Hypervisor) AttachFaults(f *faults.Injector) {
	h.cfg.flt = f
	h.mem.AttachFaults(f)
}

func (h *Hypervisor) boot() error {
	// Wire the telemetry sink before the first reservation so boot-time
	// allocator and frame-type activity is part of the trace.
	if h.cfg.tel != nil {
		h.mem.AttachTelemetry(h.cfg.tel)
	}
	// And the span tree, so boot-time range allocations appear as mm_op
	// spans under the boot phase.
	if h.cfg.spans != nil {
		h.mem.AttachSpans(h.cfg.spans)
	}
	// Reserve hypervisor text/data and heap at deterministic addresses.
	var err error
	if h.hvTextBase, err = h.mem.AllocRange(hvTextFrames, mm.DomXen); err != nil {
		return fmt.Errorf("reserving hv text: %w", err)
	}
	if h.heapBase, err = h.mem.AllocRange(xenHeapFrames, mm.DomXen); err != nil {
		return fmt.Errorf("reserving xen heap: %w", err)
	}
	// The region classifier depends only on the two reservations above,
	// so it is identical for a fresh boot and a snapshot fork; install
	// it before buildSharedTables takes the first page-type references.
	// Coverage rides on the telemetry recorder (nil-safe when either is
	// absent).
	h.cfg.tel.Coverage().SetFrameClassifier(h.FrameClassifier())

	// The hypervisor's own view of memory: its text, the directmap, and
	// the declared guest-visible windows. Guest-side access rights flow
	// from real page tables built below; the map records the policy and
	// serves hypervisor-internal (linear) translation.
	segs := standardSegments(h.version, h.mem.Bytes(), h.hvTextBase.Addr())
	if h.layout, err = layout.NewMap(segs...); err != nil {
		return err
	}

	// Page-walk policy per version profile.
	if h.version.RestrictPTWrites {
		h.policy = hardenedPolicy{}
	} else {
		h.policy = pagetable.PermissivePolicy{}
	}
	h.walker = pagetable.NewWalker(h.mem, h.policy)
	if h.cfg.tel != nil {
		h.walker.AttachTelemetry(h.cfg.tel)
	}
	h.builder = pagetable.NewBuilder(h.mem, func() (mm.MFN, error) { return h.mem.Alloc(mm.DomXen) })

	if err := h.buildSharedTables(); err != nil {
		return err
	}
	if err := h.initIDT(); err != nil {
		return err
	}

	h.Logf("Xen version %s (simulated) booting", h.version.Name)
	h.Logf("machine: %d frames (%d KiB)", h.mem.NumFrames(), h.mem.Bytes()>>10)
	h.Logf("hv text at mfn %#x, heap at mfn %#x", uint64(h.hvTextBase), uint64(h.heapBase))
	if h.version.LinearPTAlias {
		h.Logf("linear page-table alias mapped RWX at %#x", uint64(layout.LinearPTBase))
	} else {
		h.Logf("linear page-table alias removed (XSA-213..315 follow-up hardening)")
	}
	return nil
}

// standardSegments is the version profile's memory map: the segment
// names, extents and permissions every hypervisor of that profile boots
// with, parameterized only by machine size and the text's physical
// placement. boot and RoleLayout share it so symbolic role names resolve
// identically in a live environment and in offline trace analysis.
func standardSegments(v Version, machineBytes uint64, hvTextPhys mm.PhysAddr) []layout.Segment {
	segs := []layout.Segment{
		{
			Name:  "hv-text",
			Start: layout.HypervisorVirtStart, End: layout.HypervisorVirtStart + hvTextFrames*mm.PageSize,
			PhysBase:  hvTextPhys,
			GuestPerm: layout.PermNone, HVPerm: layout.PermRWX,
		},
		{
			Name:  "directmap",
			Start: layout.DirectmapBase, End: layout.DirectmapBase + machineBytes,
			PhysBase:  0,
			GuestPerm: layout.PermNone, HVPerm: layout.PermRW,
		},
		{
			Name:  "guest-ro",
			Start: layout.GuestROBase, End: layout.GuestROBase + machineBytes,
			PhysBase:  0,
			GuestPerm: layout.PermR, HVPerm: layout.PermRW,
		},
	}
	if v.LinearPTAlias {
		segs = append(segs, layout.Segment{
			Name:  "linear-pt-alias",
			Start: layout.LinearPTBase, End: layout.LinearPTBase + machineBytes,
			PhysBase:  0,
			GuestPerm: layout.PermRWX, HVPerm: layout.PermRWX,
		})
	}
	return segs
}

// RoleLayout builds the version profile's memory map without booting a
// hypervisor: same segment names and extents as a live environment of
// that profile on a machine of machineBytes, with the text's physical
// base pinned to zero (role lookups never translate). Trace
// canonicalization uses it to map raw virtual addresses in a recorded
// trace back to symbolic segment roles.
func RoleLayout(v Version, machineBytes uint64) (*layout.Map, error) {
	return layout.NewMap(standardSegments(v, machineBytes, 0)...)
}

// buildSharedTables constructs the idle L4 and the shared Xen L3 that is
// installed into every guest's L4 at XenL4Slot, plus — on profiles that
// have it — the RWX alias of machine memory under AliasL3Index.
func (h *Hypervisor) buildSharedTables() error {
	var err error
	if h.xenL4, err = h.mem.Alloc(mm.DomXen); err != nil {
		return fmt.Errorf("allocating idle L4: %w", err)
	}
	if err := h.mem.GetType(h.xenL4, mm.TypeL4); err != nil {
		return err
	}
	if h.xenL3, err = h.mem.Alloc(mm.DomXen); err != nil {
		return fmt.Errorf("allocating shared Xen L3: %w", err)
	}
	if err := h.mem.GetType(h.xenL3, mm.TypeL3); err != nil {
		return err
	}
	if err := pagetable.WriteEntry(h.mem, h.xenL4, XenL4Slot,
		pagetable.NewEntry(h.xenL3, pagetable.FlagPresent|pagetable.FlagRW|pagetable.FlagUser)); err != nil {
		return err
	}

	if !h.version.LinearPTAlias {
		return nil
	}
	// The alias: 2 MiB superpage entries covering all machine memory,
	// user-accessible, writable and executable — the exact property the
	// XSA-212-priv payload installation depends on.
	if h.aliasL2, err = h.mem.Alloc(mm.DomXen); err != nil {
		return fmt.Errorf("allocating alias L2: %w", err)
	}
	if err := h.mem.GetType(h.aliasL2, mm.TypeL2); err != nil {
		return err
	}
	superpages := int((h.mem.Bytes() + pagetable.SuperpageSize - 1) / pagetable.SuperpageSize)
	if superpages > pagetable.EntriesPerTable {
		superpages = pagetable.EntriesPerTable
	}
	for i := 0; i < superpages; i++ {
		base := mm.MFN(i * (pagetable.SuperpageSize / mm.PageSize))
		e := pagetable.NewEntry(base,
			pagetable.FlagPresent|pagetable.FlagRW|pagetable.FlagUser|pagetable.FlagPSE)
		if err := pagetable.WriteEntry(h.mem, h.aliasL2, i, e); err != nil {
			return err
		}
	}
	return pagetable.WriteEntry(h.mem, h.xenL3, AliasL3Index,
		pagetable.NewEntry(h.aliasL2, pagetable.FlagPresent|pagetable.FlagRW|pagetable.FlagUser))
}

// initIDT lays out the interrupt descriptor table in hv-text and installs
// the native page-fault and double-fault handlers.
func (h *Hypervisor) initIDT() error {
	h.idtr = cpu.IDTR{
		Base:  layout.HypervisorVirtStart + idtFrameOffset*mm.PageSize,
		Limit: cpu.NumVectors*cpu.DescriptorSize - 1,
	}
	gates := map[uint8]uint64{
		cpu.VectorPageFault:   pfHandlerVA,
		cpu.VectorDoubleFault: dfHandlerVA,
		13:                    gpHandlerVA,
	}
	for vector, handler := range gates {
		g := cpu.NewInterruptGate(handler)
		enc := g.Encode()
		phys, _, err := h.layout.Translate(h.idtr.DescriptorAddr(vector))
		if err != nil {
			return err
		}
		if err := h.mem.WritePhys(phys, enc[:]); err != nil {
			return err
		}
	}
	return nil
}

// builtinTraps are the native trap handlers, keyed by their hv-text
// pseudo-address. They take the hypervisor they run on, so one table
// serves every build and fork; Builtin binds them.
var builtinTraps = map[uint64]func(*Hypervisor) error{
	// The native #PF handler fixes up or reflects the fault to the
	// guest; from the machine's point of view delivery succeeded.
	pfHandlerVA: func(h *Hypervisor) error {
		h.pfCount++
		return nil
	},
	dfHandlerVA: func(h *Hypervisor) error {
		h.Crash("FATAL TRAP: vector = 8 (double fault)")
		return cpu.ErrCrashed
	},
	gpHandlerVA: func(h *Hypervisor) error {
		h.pfCount++
		return nil
	},
}

// hardenedPolicy is the 4.13 page-walk policy: guest-initiated writes
// that resolve to a frame validated as a page table are refused even
// when every PTE flag in the chain permits them.
type hardenedPolicy struct{}

var _ pagetable.Policy = hardenedPolicy{}

func (hardenedPolicy) CheckLeaf(mem *mm.Memory, target mm.MFN, acc pagetable.Access, guest bool) error {
	if !guest || acc != pagetable.AccessWrite {
		return nil
	}
	pi, err := mem.Info(target)
	if err != nil {
		return err
	}
	if pi.Type.IsPageTable() {
		return fmt.Errorf("hardened: guest write to %s page-table frame %#x refused", pi.Type, uint64(target))
	}
	return nil
}

// Accessors.

// Memory returns the machine the hypervisor runs on.
func (h *Hypervisor) Memory() *mm.Memory { return h.mem }

// Version returns the build profile.
func (h *Hypervisor) Version() Version { return h.version }

// Layout returns the hypervisor's virtual memory map.
func (h *Hypervisor) Layout() *layout.Map { return h.layout }

// IDTR returns the loaded IDT register value.
func (h *Hypervisor) IDTR() cpu.IDTR { return h.idtr }

// XenL3 returns the machine frame of the shared Xen L3 — the "target
// PUD" of the XSA-212-priv attack. Real exploits obtain the equivalent
// as hardcoded per-version build constants.
func (h *Hypervisor) XenL3() mm.MFN { return h.xenL3 }

// XenL4 returns the idle L4 root.
func (h *Hypervisor) XenL4() mm.MFN { return h.xenL4 }

// HeapBase returns the first frame of the Xen heap.
func (h *Hypervisor) HeapBase() mm.MFN { return h.heapBase }

// PageFaults returns how many faults the native #PF handler absorbed.
func (h *Hypervisor) PageFaults() int { return h.pfCount }

// Telemetry returns the build's telemetry recorder (nil when tracing
// is disabled). Packages holding the hypervisor — the injector, the
// scenarios, the monitor — reach the environment's sink through this.
func (h *Hypervisor) Telemetry() *telemetry.Recorder { return h.cfg.tel }

// Spans returns the build's causal span tree (nil when span capture is
// disabled). The campaign engine and the monitor nest their phases and
// audit passes in it.
func (h *Hypervisor) Spans() *span.Tree { return h.cfg.spans }

// FrameClassifier returns the region classifier coverage uses for
// page-type edges: the hypervisor's own reservations classify as
// "hv-text" and "xen-heap", everything else as "general". The classes
// depend only on the boot-time reservation bases, which are
// deterministic, so classification is identical across fresh boots,
// snapshot forks and worker counts.
func (h *Hypervisor) FrameClassifier() coverage.FrameClassifier {
	text, heap := uint64(h.hvTextBase), uint64(h.heapBase)
	return func(mfn uint64) string {
		switch {
		case mfn >= text && mfn < text+hvTextFrames:
			return "hv-text"
		case mfn >= heap && mfn < heap+xenHeapFrames:
			return "xen-heap"
		}
		return "general"
	}
}

// ClockTicks returns how many benign vDSO clock reads have executed.
func (h *Hypervisor) ClockTicks() int { return h.clockTicks }

// Console and crash handling.

// Logf appends a line to the hypervisor console, "(XEN)"-prefixed like
// the serial output the paper's monitoring terminal captures.
func (h *Hypervisor) Logf(format string, args ...any) {
	h.logBuf = fmt.Appendf(append(h.logBuf[:0], "(XEN) "...), format, args...)
	h.console = append(h.console, string(h.logBuf))
}

// Console returns a copy of the console log.
func (h *Hypervisor) Console() []string {
	out := make([]string, len(h.console))
	copy(out, h.console)
	return out
}

// ConsoleContains reports whether any console line contains the
// substring — the oracle the crash monitor uses.
func (h *Hypervisor) ConsoleContains(sub string) bool {
	for _, line := range h.console {
		if strings.Contains(line, sub) {
			return true
		}
	}
	return false
}

// Crash records a fatal hypervisor failure and prints the panic banner.
// Implements cpu.Platform.
func (h *Hypervisor) Crash(reason string) {
	if h.crashed {
		return
	}
	h.crashed = true
	h.crashMsg = reason
	h.console = append(h.console,
		"(XEN) ****************************************",
		"(XEN) Panic on CPU 0:",
		"(XEN) "+reason,
		"(XEN) ****************************************",
		"(XEN) Reboot in five seconds...",
	)
}

// Crashed reports whether the hypervisor has panicked. Implements
// cpu.Platform.
func (h *Hypervisor) Crashed() bool { return h.crashed }

// CrashReason returns the recorded panic reason, empty if alive.
func (h *Hypervisor) CrashReason() string { return h.crashMsg }

// Hung reports whether a payload drove the hypervisor into a hang state.
func (h *Hypervisor) Hung() bool { return h.hung }

// Builtin resolves native trap handlers. Implements cpu.Platform.
func (h *Hypervisor) Builtin(va uint64) (cpu.BuiltinHandler, bool) {
	f, ok := builtinTraps[va]
	if !ok {
		return nil, false
	}
	return func(uint8) error { return f(h) }, true
}

// Ring0Context returns the execution context IDT-dispatched payloads run
// under. Implements cpu.Platform.
func (h *Hypervisor) Ring0Context() cpu.ExecContext { return &ring0Ctx{h: h} }

// ring0Ctx is hypervisor-privilege payload execution: reach into every
// domain, no further escalation possible.
type ring0Ctx struct {
	h *Hypervisor
}

var _ cpu.ExecContext = (*ring0Ctx)(nil)

func (c *ring0Ctx) Logf(format string, args ...any) {
	c.h.Logf("ring0 payload: "+format, args...)
}

func (c *ring0Ctx) DropFileAllDomains(path, tmpl string) error {
	for _, d := range c.h.DomainList() {
		os := d.OS()
		if os == nil {
			continue
		}
		content := strings.ReplaceAll(tmpl, "@HOST", "@"+os.Hostname())
		if err := os.WriteFileAsRoot(path, content); err != nil {
			return fmt.Errorf("hv: dropping %s in %s: %w", path, d.Name(), err)
		}
	}
	return nil
}

func (c *ring0Ctx) ReverseShell(addr string) error {
	for _, d := range c.h.DomainList() {
		if d.Privileged() && d.OS() != nil {
			return d.OS().ReverseShellAsRoot(addr)
		}
	}
	return fmt.Errorf("hv: no privileged domain with an attached OS")
}

func (c *ring0Ctx) Escalate() { c.h.Logf("ring0 payload: already at hypervisor privilege") }

func (c *ring0Ctx) ClockGettime() { c.h.clockTicks++ }

func (c *ring0Ctx) Halt() {
	c.h.hung = true
	c.h.Logf("ring0 payload: CPU wedged in tight loop (hang state)")
}

var _ cpu.Platform = (*Hypervisor)(nil)
