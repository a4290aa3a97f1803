package hv

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/mm"
	"repro/internal/pagetable"
)

const testMachineFrames = 2048

func bootVersion(t *testing.T, v Version) *Hypervisor {
	t.Helper()
	mem, err := mm.NewMemory(testMachineFrames)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(mem, v)
	if err != nil {
		t.Fatalf("New(%s): %v", v, err)
	}
	return h
}

func mustDomain(t *testing.T, h *Hypervisor, name string, frames int, priv bool) *Domain {
	t.Helper()
	d, err := h.CreateDomain(name, frames, priv)
	if err != nil {
		t.Fatalf("CreateDomain(%s): %v", name, err)
	}
	return d
}

func TestBootAllVersions(t *testing.T) {
	for _, v := range Versions() {
		t.Run(v.Name, func(t *testing.T) {
			h := bootVersion(t, v)
			if h.Crashed() {
				t.Fatal("crashed at boot")
			}
			_, err := h.Layout().ByName("linear-pt-alias")
			if v.LinearPTAlias && err != nil {
				t.Errorf("alias segment missing on %s", v.Name)
			}
			if !v.LinearPTAlias && err == nil {
				t.Errorf("alias segment present on hardened %s", v.Name)
			}
			if !h.ConsoleContains("booting") {
				t.Error("boot banner missing from console")
			}
		})
	}
}

func TestVersionByName(t *testing.T) {
	for _, name := range []string{"4.6", "4.8", "4.13"} {
		v, err := VersionByName(name)
		if err != nil || v.Name != name {
			t.Errorf("VersionByName(%s) = %v, %v", name, v, err)
		}
	}
	if _, err := VersionByName("5.0"); err == nil {
		t.Error("unknown version accepted")
	}
}

func TestSharedXenTables(t *testing.T) {
	h := bootVersion(t, Version46())
	// The idle L4's Xen slot points at the shared L3.
	e, err := pagetable.ReadEntry(h.Memory(), h.XenL4(), XenL4Slot)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Present() || e.MFN() != h.XenL3() {
		t.Errorf("idle L4 slot %d = %v, want shared L3 %#x", XenL4Slot, e, uint64(h.XenL3()))
	}
	// The alias L3 entry exists and leads to user-accessible RWX
	// superpages on 4.6.
	ae, err := pagetable.ReadEntry(h.Memory(), h.XenL3(), AliasL3Index)
	if err != nil {
		t.Fatal(err)
	}
	if !ae.Present() {
		t.Fatal("alias L3 entry missing on 4.6")
	}
	sp, err := pagetable.ReadEntry(h.Memory(), ae.MFN(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Superpage() || !sp.Writable() || !sp.User() {
		t.Errorf("alias superpage entry = %v, want PSE|RW|US", sp)
	}
	// MiscL3Index starts empty — it is the attack's link target.
	me, err := pagetable.ReadEntry(h.Memory(), h.XenL3(), MiscL3Index)
	if err != nil {
		t.Fatal(err)
	}
	if me.Present() {
		t.Errorf("misc L3 slot unexpectedly populated: %v", me)
	}

	h13 := bootVersion(t, Version413())
	ae13, err := pagetable.ReadEntry(h13.Memory(), h13.XenL3(), AliasL3Index)
	if err != nil {
		t.Fatal(err)
	}
	if ae13.Present() {
		t.Error("alias L3 entry present on 4.13")
	}
}

func TestCreateDomainLayout(t *testing.T) {
	h := bootVersion(t, Version46())
	d := mustDomain(t, h, "guest01", 64, false)

	if d.ID() != mm.DomFirstGuest {
		t.Errorf("first guest id = %d", d.ID())
	}
	if d.Frames() != 64 || d.P2M().Len() != 64 {
		t.Errorf("frames = %d, p2m = %d", d.Frames(), d.P2M().Len())
	}
	// Every PFN's physmap VA resolves to its machine frame.
	for pfn := mm.PFN(0); pfn < 64; pfn++ {
		mfn, err := d.P2M().Lookup(pfn)
		if err != nil {
			t.Fatal(err)
		}
		walk, err := h.Walker().Translate(d.CR3(), d.PhysmapVA(pfn), pagetable.AccessRead, true)
		if err != nil {
			t.Fatalf("pfn %d: %v", pfn, err)
		}
		if walk.MFN != mfn {
			t.Errorf("pfn %d resolves to %#x, want %#x", pfn, uint64(walk.MFN), uint64(mfn))
		}
	}
	// Page-table frames are typed and not guest-writable via physmap.
	if len(d.PageTableFrames()) == 0 {
		t.Fatal("no page-table frames recorded")
	}
	for mfn, level := range d.PageTableFrames() {
		pi, err := h.Memory().Info(mfn)
		if err != nil {
			t.Fatal(err)
		}
		if pi.Type.PageTableLevel() != level {
			t.Errorf("pt frame %#x type %v, want level %d", uint64(mfn), pi.Type, level)
		}
		_, pfn, err := h.Memory().M2P(mfn)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Walker().Translate(d.CR3(), d.PhysmapVA(pfn), pagetable.AccessWrite, true); err == nil {
			t.Errorf("physmap mapping of pt frame %#x is guest-writable", uint64(mfn))
		}
	}
	// Guest L4 carries the shared Xen slot.
	e, err := pagetable.ReadEntry(h.Memory(), d.CR3(), XenL4Slot)
	if err != nil {
		t.Fatal(err)
	}
	if e.MFN() != h.XenL3() {
		t.Errorf("guest Xen slot = %v", e)
	}
}

func TestCreateDomainBootPages(t *testing.T) {
	h := bootVersion(t, Version46())
	d0 := mustDomain(t, h, "xen3", 64, true)
	if d0.ID() != mm.Dom0 || !d0.Privileged() {
		t.Errorf("dom0 = id %d priv %v", d0.ID(), d0.Privileged())
	}
	siMFN, err := d0.P2M().Lookup(StartInfoPFN)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := h.Memory().ReadPhys(siMFN.Addr(), buf); err != nil {
		t.Fatal(err)
	}
	s := string(buf)
	if !strings.HasPrefix(s, StartInfoMagic) {
		t.Errorf("start_info magic missing: %q", s[:32])
	}
	if !strings.Contains(s, "xen3") {
		t.Errorf("start_info lacks domain name: %q", s)
	}
	if buf[len(StartInfoMagic)+1] != 1 {
		t.Error("dom0 start_info not flagged privileged")
	}

	vdMFN, err := d0.P2M().Lookup(VDSOPFN)
	if err != nil {
		t.Fatal(err)
	}
	vbuf := make([]byte, 64)
	if err := h.Memory().ReadPhys(vdMFN.Addr(), vbuf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(vbuf), VDSOSignature) {
		t.Error("vDSO signature missing")
	}
	prog, err := cpu.Disassemble(vbuf[VDSOEntryOffset:])
	if err != nil {
		t.Fatalf("vDSO payload: %v", err)
	}
	if prog[0].Op != cpu.OpClockGettime {
		t.Errorf("vDSO program = %v", prog)
	}

	if _, err := h.CreateDomain("xen4", 64, true); !errors.Is(err, ErrInval) {
		t.Errorf("second dom0: err = %v, want ErrInval", err)
	}
	if _, err := h.CreateDomain("tiny", 4, false); !errors.Is(err, ErrInval) {
		t.Errorf("undersized domain: err = %v, want ErrInval", err)
	}
}

// leafPTEAddr returns the machine address of the L1 entry serving the
// guest VA, as an exploit computes it.
func leafPTEAddr(t *testing.T, h *Hypervisor, d *Domain, va uint64) mm.PhysAddr {
	t.Helper()
	addr, err := pagetable.LeafEntryAddr(h.Memory(), d.CR3(), va)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

func TestMMUUpdateMapAndUnmap(t *testing.T) {
	h := bootVersion(t, Version48())
	d := mustDomain(t, h, "guest01", 64, false)
	pfn, err := d.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	target, err := d.P2M().Lookup(pfn)
	if err != nil {
		t.Fatal(err)
	}
	// Map the page a second time at an unused physmap slot... pick a VA
	// in the physmap range beyond the domain's frames; its L1 exists
	// because the physmap L1 covers 2 MiB (512 pages > 64 frames).
	va := d.PhysmapVA(mm.PFN(d.Frames()) + 10)
	ptr := leafPTEAddr(t, h, d, d.PhysmapVA(0)) // L1 base via pfn 0
	idxDelta := mm.PhysAddr((uint64(d.Frames()) + 10) * pagetable.EntrySize)
	ptr += idxDelta

	before, _ := h.Memory().Info(target)
	beforeRef, beforeType := before.RefCount, before.TypeCount

	err = d.Hypercall(HypercallMMUUpdate, &MMUUpdateArgs{Updates: []MMUUpdate{{
		Ptr: ptr,
		Val: pagetable.NewEntry(target, pagetable.FlagPresent|pagetable.FlagRW|pagetable.FlagUser),
	}}})
	if err != nil {
		t.Fatalf("mmu_update map: %v", err)
	}
	walk, err := h.Walker().Translate(d.CR3(), va, pagetable.AccessWrite, true)
	if err != nil || walk.MFN != target {
		t.Fatalf("new mapping walk = %v, %v", walk, err)
	}
	after, _ := h.Memory().Info(target)
	if after.RefCount != beforeRef+1 || after.TypeCount != beforeType+1 {
		t.Errorf("refs after map = (%d,%d), want (%d,%d)",
			after.RefCount, after.TypeCount, beforeRef+1, beforeType+1)
	}

	// Unmap: counts return to baseline.
	if err := d.Hypercall(HypercallMMUUpdate, &MMUUpdateArgs{Updates: []MMUUpdate{{Ptr: ptr, Val: 0}}}); err != nil {
		t.Fatalf("mmu_update clear: %v", err)
	}
	final, _ := h.Memory().Info(target)
	if final.RefCount != beforeRef || final.TypeCount != beforeType {
		t.Errorf("refs after unmap = (%d,%d), want (%d,%d)",
			final.RefCount, final.TypeCount, beforeRef, beforeType)
	}
}

func TestMMUUpdateRejections(t *testing.T) {
	h := bootVersion(t, Version48())
	d := mustDomain(t, h, "guest01", 64, false)
	other := mustDomain(t, h, "guest02", 64, false)

	l1ptr := leafPTEAddr(t, h, d, d.PhysmapVA(0))
	otherTarget, _ := other.P2M().Lookup(5)
	dataMFN, _ := d.P2M().Lookup(5)

	tests := []struct {
		name string
		ptr  mm.PhysAddr
		val  pagetable.Entry
		want error
	}{
		{"unaligned ptr", l1ptr + 3, 0, ErrInval},
		{"pte frame not a page table", dataMFN.Addr(), 0, ErrInval},
		{"foreign pte frame", leafPTEAddr(t, h, other, other.PhysmapVA(0)), 0, ErrPerm},
		{"entry maps foreign frame", l1ptr, pagetable.NewEntry(otherTarget, pagetable.FlagPresent|pagetable.FlagRW), ErrInval},
		{"entry maps hv frame", l1ptr, pagetable.NewEntry(h.XenL3(), pagetable.FlagPresent), ErrInval},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := d.Hypercall(HypercallMMUUpdate, &MMUUpdateArgs{Updates: []MMUUpdate{{Ptr: tt.ptr, Val: tt.val}}})
			if !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

// The writable-mapping invariant: a frame that is writable-mapped cannot
// become a page table, and a page-table frame cannot be writable-mapped.
func TestWritableMappingInvariant(t *testing.T) {
	h := bootVersion(t, Version48())
	d := mustDomain(t, h, "guest01", 64, false)

	// Try to writable-map one of the domain's own L1 frames.
	var l1 mm.MFN
	for mfn, level := range d.PageTableFrames() {
		if level == 1 {
			l1 = mfn
			break
		}
	}
	spareVA := d.PhysmapVA(mm.PFN(d.Frames()) + 20)
	ptr := leafPTEAddr(t, h, d, d.PhysmapVA(0)) + mm.PhysAddr((uint64(d.Frames())+20)*pagetable.EntrySize)
	err := d.Hypercall(HypercallMMUUpdate, &MMUUpdateArgs{Updates: []MMUUpdate{{
		Ptr: ptr,
		Val: pagetable.NewEntry(l1, pagetable.FlagPresent|pagetable.FlagRW|pagetable.FlagUser),
	}}})
	if !errors.Is(err, ErrInval) {
		t.Errorf("writable mapping of L1 frame: err = %v, want ErrInval", err)
	}
	// Read-only mapping of the same frame is legal.
	err = d.Hypercall(HypercallMMUUpdate, &MMUUpdateArgs{Updates: []MMUUpdate{{
		Ptr: ptr,
		Val: pagetable.NewEntry(l1, pagetable.FlagPresent|pagetable.FlagUser),
	}}})
	if err != nil {
		t.Errorf("read-only mapping of L1 frame: %v", err)
	}
	if _, err := h.Walker().Translate(d.CR3(), spareVA, pagetable.AccessRead, true); err != nil {
		t.Errorf("reading through RO mapping: %v", err)
	}
}

func TestXSA148Gate(t *testing.T) {
	for _, tt := range []struct {
		version Version
		wantErr bool
	}{
		{Version46(), false},
		{Version48(), true},
		{Version413(), true},
	} {
		t.Run(tt.version.Name, func(t *testing.T) {
			h := bootVersion(t, tt.version)
			d := mustDomain(t, h, "guest01", 64, false)
			// Write a PSE superpage entry into the guest's own physmap L2.
			l2, err := pagetable.TableFor(h.Memory(), d.CR3(), d.PhysmapVA(0), 2)
			if err != nil {
				t.Fatal(err)
			}
			idx, _ := pagetable.Index(d.PhysmapVA(0)+8*pagetable.SuperpageSize, 2)
			ptr, _ := pagetable.EntryAddr(l2, idx)
			err = d.Hypercall(HypercallMMUUpdate, &MMUUpdateArgs{Updates: []MMUUpdate{{
				Ptr: ptr,
				Val: pagetable.NewEntry(0, pagetable.FlagPresent|pagetable.FlagRW|pagetable.FlagUser|pagetable.FlagPSE),
			}}})
			if tt.wantErr {
				if !errors.Is(err, ErrInval) {
					t.Errorf("PSE entry on %s: err = %v, want ErrInval", tt.version.Name, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("PSE entry on 4.6: %v", err)
			}
			// The guest now reads arbitrary machine memory through the
			// superpage window — e.g. the hypervisor's own text frames.
			winVA := d.PhysmapVA(0) + 8*pagetable.SuperpageSize
			walk, err := h.Walker().Translate(d.CR3(), winVA+uint64(h.hvTextBase)*mm.PageSize, pagetable.AccessWrite, true)
			if err != nil {
				t.Fatalf("walking superpage window: %v", err)
			}
			if walk.MFN != h.hvTextBase {
				t.Errorf("window resolves to %#x, want hv text %#x", uint64(walk.MFN), uint64(h.hvTextBase))
			}
		})
	}
}

func TestXSA182Gate(t *testing.T) {
	for _, tt := range []struct {
		version   Version
		flipWorks bool
	}{
		{Version46(), true},
		{Version48(), false},
		{Version413(), false},
	} {
		t.Run(tt.version.Name, func(t *testing.T) {
			h := bootVersion(t, tt.version)
			d := mustDomain(t, h, "guest01", 64, false)
			const slot = 42
			rootPtr, _ := pagetable.EntryAddr(d.CR3(), slot)
			// Installing a read-only self-map is legal everywhere.
			roEntry := pagetable.NewEntry(d.CR3(), pagetable.FlagPresent|pagetable.FlagUser)
			if err := d.Hypercall(HypercallMMUUpdate, &MMUUpdateArgs{Updates: []MMUUpdate{{Ptr: rootPtr, Val: roEntry}}}); err != nil {
				t.Fatalf("read-only self-map: %v", err)
			}
			// A direct writable self-map must be rejected everywhere.
			rwEntry := roEntry.WithFlags(pagetable.FlagRW)
			// First clear, then try to install writable directly.
			if err := d.Hypercall(HypercallMMUUpdate, &MMUUpdateArgs{Updates: []MMUUpdate{{Ptr: rootPtr, Val: 0}}}); err != nil {
				t.Fatal(err)
			}
			if err := d.Hypercall(HypercallMMUUpdate, &MMUUpdateArgs{Updates: []MMUUpdate{{Ptr: rootPtr, Val: rwEntry}}}); !errors.Is(err, ErrInval) {
				t.Errorf("direct writable self-map: err = %v, want ErrInval", err)
			}
			// Reinstall RO, then attempt the XSA-182 flag-only RW flip.
			if err := d.Hypercall(HypercallMMUUpdate, &MMUUpdateArgs{Updates: []MMUUpdate{{Ptr: rootPtr, Val: roEntry}}}); err != nil {
				t.Fatal(err)
			}
			err := d.Hypercall(HypercallMMUUpdate, &MMUUpdateArgs{Updates: []MMUUpdate{{Ptr: rootPtr, Val: rwEntry}}})
			if tt.flipWorks && err != nil {
				t.Errorf("fast-path RW flip on %s: %v", tt.version.Name, err)
			}
			if !tt.flipWorks && !errors.Is(err, ErrInval) {
				t.Errorf("fast-path RW flip on %s: err = %v, want ErrInval", tt.version.Name, err)
			}
			got, _ := pagetable.ReadEntry(h.Memory(), d.CR3(), slot)
			if got.Writable() != tt.flipWorks {
				t.Errorf("self-map entry after flip = %v", got)
			}
		})
	}
}

func TestXSA212Gate(t *testing.T) {
	for _, tt := range []struct {
		version  Version
		idtWrite bool
	}{
		{Version46(), true},
		{Version48(), false},
		{Version413(), false},
	} {
		t.Run(tt.version.Name, func(t *testing.T) {
			h := bootVersion(t, tt.version)
			d := mustDomain(t, h, "guest01", 64, false)
			pfn := prepareExchangeablePage(t, h, d)

			// Benign use: results land in the guest's own memory.
			dstPFN, err := d.AllocPage()
			if err != nil {
				t.Fatal(err)
			}
			args := &ExchangeArgs{In: []mm.PFN{pfn}, OutStart: d.PhysmapVA(dstPFN)}
			if err := d.Hypercall(HypercallMemoryOp, args); err != nil {
				t.Fatalf("benign exchange: %v", err)
			}
			if args.NrExchanged != 1 || len(args.NewMFNs) != 1 {
				t.Fatalf("exchange result = %+v", args)
			}
			dstMFN, _ := d.P2M().Lookup(dstPFN)
			got, err := h.Memory().ReadU64(dstMFN.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if got != uint64(args.NewMFNs[0]) {
				t.Errorf("stored value %#x, want new mfn %#x", got, uint64(args.NewMFNs[0]))
			}

			// Malicious use: the out handle points at the IDT.
			pfn2 := prepareExchangeablePage(t, h, d)
			idtDst := h.IDTR().DescriptorAddr(cpu.VectorPageFault)
			evil := &ExchangeArgs{In: []mm.PFN{pfn2}, OutStart: idtDst}
			err = d.Hypercall(HypercallMemoryOp, evil)
			if tt.idtWrite {
				if err != nil {
					t.Fatalf("evil exchange on 4.6: %v", err)
				}
				phys, _, terr := h.Layout().Translate(idtDst)
				if terr != nil {
					t.Fatal(terr)
				}
				v, _ := h.Memory().ReadU64(phys)
				if v != uint64(evil.NewMFNs[0]) {
					t.Errorf("IDT slot = %#x, want %#x", v, uint64(evil.NewMFNs[0]))
				}
				return
			}
			if !errors.Is(err, ErrFault) {
				t.Errorf("evil exchange on %s: err = %v, want -EFAULT", tt.version.Name, err)
			}
		})
	}
}

// prepareExchangeablePage allocates a guest page and unmaps it from the
// physmap (dropping its boot references) so memory_exchange accepts it.
func prepareExchangeablePage(t *testing.T, h *Hypervisor, d *Domain) mm.PFN {
	t.Helper()
	pfn, err := d.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	ptr := leafPTEAddr(t, h, d, d.PhysmapVA(pfn))
	if err := d.Hypercall(HypercallMMUUpdate, &MMUUpdateArgs{Updates: []MMUUpdate{{Ptr: ptr, Val: 0}}}); err != nil {
		t.Fatalf("unmapping pfn %d: %v", pfn, err)
	}
	return pfn
}

func TestExchangeValueOverride(t *testing.T) {
	h := bootVersion(t, Version46())
	d := mustDomain(t, h, "guest01", 64, false)
	pfn := prepareExchangeablePage(t, h, d)
	dstPFN, _ := d.AllocPage()
	const crafted = 0xdeadbeefcafe0007
	args := &ExchangeArgs{
		In:        []mm.PFN{pfn},
		OutStart:  d.PhysmapVA(dstPFN),
		OutValues: []uint64{crafted},
	}
	if err := d.Hypercall(HypercallMemoryOp, args); err != nil {
		t.Fatal(err)
	}
	dstMFN, _ := d.P2M().Lookup(dstPFN)
	got, _ := h.Memory().ReadU64(dstMFN.Addr())
	if got != crafted {
		t.Errorf("stored %#x, want crafted %#x", got, uint64(crafted))
	}
	// Mismatched override length is rejected.
	if err := d.Hypercall(HypercallMemoryOp, &ExchangeArgs{
		In: []mm.PFN{pfn}, OutStart: d.PhysmapVA(dstPFN), OutValues: []uint64{1, 2},
	}); !errors.Is(err, ErrInval) {
		t.Errorf("bad override length: err = %v, want ErrInval", err)
	}
}

func TestExchangeRejectsMappedPage(t *testing.T) {
	h := bootVersion(t, Version46())
	d := mustDomain(t, h, "guest01", 64, false)
	pfn, _ := d.AllocPage() // still physmap-mapped
	err := d.Hypercall(HypercallMemoryOp, &ExchangeArgs{In: []mm.PFN{pfn}, OutStart: d.PhysmapVA(2)})
	if !errors.Is(err, ErrInval) {
		t.Errorf("exchanging a mapped page: err = %v, want ErrInval", err)
	}
}

func TestPopulateAndDecrease(t *testing.T) {
	h := bootVersion(t, Version46())
	d := mustDomain(t, h, "guest01", 64, false)
	args := &PopulatePhysmapArgs{PFN: 500}
	if err := d.Hypercall(HypercallMemoryOp, args); err != nil {
		t.Fatalf("populate: %v", err)
	}
	if got, err := d.P2M().Lookup(500); err != nil || got != args.MFN {
		t.Errorf("p2m[500] = %#x, %v", uint64(got), err)
	}
	if err := d.Hypercall(HypercallMemoryOp, &PopulatePhysmapArgs{PFN: 500}); !errors.Is(err, ErrInval) {
		t.Errorf("double populate: err = %v", err)
	}
	if err := d.Hypercall(HypercallMemoryOp, &DecreaseReservationArgs{PFN: 500}); err != nil {
		t.Fatalf("decrease: %v", err)
	}
	if d.P2M().Contains(500) {
		t.Error("pfn still populated after decrease")
	}
	if err := d.Hypercall(HypercallMemoryOp, &DecreaseReservationArgs{PFN: 500}); !errors.Is(err, ErrInval) {
		t.Errorf("double decrease: err = %v", err)
	}
}

// TestAttachFaultsAfterBoot: a fault plane attached to a booted build
// counts nothing of the boot or of the domain builds before it. Its
// first hypercall consults the dispatch sites once each, and a
// SiteAlloc rule armed at the first hit fails that hypercall's
// allocation without populating the pfn; the next populate succeeds.
func TestAttachFaultsAfterBoot(t *testing.T) {
	h := bootVersion(t, Version46())
	d := mustDomain(t, h, "guest01", 64, false)
	inj := faults.NewInjector().Arm(faults.SiteAlloc, 1)
	h.AttachFaults(inj)
	for _, site := range []faults.Site{faults.SiteAlloc, faults.SiteHypercallPanic, faults.SiteHang} {
		if n := inj.Hits(site); n != 0 {
			t.Fatalf("%s counted %d hits at attach, want 0", site, n)
		}
	}
	if err := d.Hypercall(HypercallMemoryOp, &PopulatePhysmapArgs{PFN: 500}); err == nil {
		t.Fatal("populate succeeded with the first allocation armed to fail")
	}
	if d.P2M().Contains(500) {
		t.Error("pfn populated by a failed allocation")
	}
	if got := inj.Fired(); len(got) != 1 || got[0] != "mm.alloc@1" {
		t.Errorf("fired %v, want [mm.alloc@1]", got)
	}
	for _, site := range []faults.Site{faults.SiteHypercallPanic, faults.SiteHang} {
		if n := inj.Hits(site); n != 1 {
			t.Errorf("%s counted %d hits after one hypercall, want 1", site, n)
		}
	}
	if err := d.Hypercall(HypercallMemoryOp, &PopulatePhysmapArgs{PFN: 500}); err != nil {
		t.Fatalf("populate after the fired rule: %v", err)
	}
	if h.Hung() {
		t.Error("an alloc rule left the build hung")
	}
}

func TestAliasAccessByVersion(t *testing.T) {
	for _, tt := range []struct {
		version Version
		want    bool
	}{
		{Version46(), true},
		{Version48(), true},
		{Version413(), false},
	} {
		t.Run(tt.version.Name, func(t *testing.T) {
			h := bootVersion(t, tt.version)
			d := mustDomain(t, h, "guest01", 64, false)
			// Write through the alias to a Xen heap frame via guest access.
			target := h.HeapBase() + 3
			va := layout.LinearPTBase + uint64(target)*mm.PageSize
			_, err := h.Walker().Translate(d.CR3(), va, pagetable.AccessWrite, true)
			if tt.want && err != nil {
				t.Errorf("alias write on %s failed: %v", tt.version.Name, err)
			}
			if !tt.want && err == nil {
				t.Errorf("alias write on %s succeeded", tt.version.Name)
			}
		})
	}
}

func TestHardenedPolicyBlocksPTWrites(t *testing.T) {
	h := bootVersion(t, Version413())
	d := mustDomain(t, h, "guest01", 64, false)
	// Force a writable PTE onto a page-table frame by raw write (as the
	// injector would), then check the walk still refuses guest writes.
	var l1 mm.MFN
	for mfn, level := range d.PageTableFrames() {
		if level == 1 {
			l1 = mfn
			break
		}
	}
	_, pfn, err := h.Memory().M2P(l1)
	if err != nil {
		t.Fatal(err)
	}
	va := d.PhysmapVA(pfn)
	addr, err := pagetable.LeafEntryAddr(h.Memory(), d.CR3(), va)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := pagetable.ReadEntry(h.Memory(), addr.Frame(), int(addr.Offset()/8))
	if err := h.Memory().WriteU64(addr, uint64(e.WithFlags(pagetable.FlagRW))); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Walker().Translate(d.CR3(), va, pagetable.AccessWrite, true); err == nil {
		t.Error("hardened walk allowed guest write to a page-table frame")
	}
	// Reads and hypervisor-internal writes still pass.
	if _, err := h.Walker().Translate(d.CR3(), va, pagetable.AccessRead, true); err != nil {
		t.Errorf("hardened walk refused a read: %v", err)
	}
	if _, err := h.Walker().Translate(d.CR3(), va, pagetable.AccessWrite, false); err != nil {
		t.Errorf("hardened walk refused a hypervisor write: %v", err)
	}
}

func TestTranslateHV(t *testing.T) {
	h := bootVersion(t, Version46())
	// IDT address resolves through hv-text.
	phys, err := h.TranslateHV(h.IDTR().Base, pagetable.AccessWrite)
	if err != nil {
		t.Fatalf("TranslateHV(IDT): %v", err)
	}
	if want := (h.hvTextBase + idtFrameOffset).Addr(); phys != want {
		t.Errorf("IDT phys = %#x, want %#x", uint64(phys), uint64(want))
	}
	// Directmap covers all machine memory.
	phys, err = h.TranslateHV(layout.DirectmapBase+0x5000, pagetable.AccessRead)
	if err != nil || phys != 0x5000 {
		t.Errorf("directmap translate = %#x, %v", uint64(phys), err)
	}
	// Alias resolves via the idle tables on 4.6.
	if _, err := h.TranslateHV(layout.LinearPTBase+0x3000, pagetable.AccessWrite); err != nil {
		t.Errorf("alias translate on 4.6: %v", err)
	}
	h13 := bootVersion(t, Version413())
	if _, err := h13.TranslateHV(layout.LinearPTBase+0x3000, pagetable.AccessWrite); err == nil {
		t.Error("alias translate on 4.13 succeeded")
	}
}

func TestReadWriteHV(t *testing.T) {
	h := bootVersion(t, Version46())
	msg := []byte("written through the directmap")
	va := layout.DirectmapBase + uint64(h.HeapBase())*mm.PageSize
	if err := h.WriteHV(va, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := h.ReadHV(va, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Errorf("round trip = %q", got)
	}
}

func TestCrashSemantics(t *testing.T) {
	h := bootVersion(t, Version46())
	d := mustDomain(t, h, "guest01", 64, false)
	h.Crash("FATAL TRAP: vector = 8 (double fault)")
	if !h.Crashed() || h.CrashReason() == "" {
		t.Fatal("crash not recorded")
	}
	if !h.ConsoleContains("Panic on CPU 0") {
		t.Error("panic banner missing")
	}
	if err := d.Hypercall(HypercallMMUUpdate, &MMUUpdateArgs{}); !errors.Is(err, ErrCrashed) {
		t.Errorf("hypercall after crash: err = %v, want ErrCrashed", err)
	}
	if _, err := h.CreateDomain("late", 64, false); !errors.Is(err, ErrCrashed) {
		t.Errorf("domain creation after crash: err = %v", err)
	}
	// Crash is idempotent; the first reason wins.
	h.Crash("second")
	if h.CrashReason() != "FATAL TRAP: vector = 8 (double fault)" {
		t.Errorf("crash reason overwritten: %q", h.CrashReason())
	}
}

func TestHypercallDispatch(t *testing.T) {
	h := bootVersion(t, Version46())
	d := mustDomain(t, h, "guest01", 64, false)
	if err := d.Hypercall(99, nil); !errors.Is(err, ErrNoSys) {
		t.Errorf("unknown hypercall: err = %v, want ErrNoSys", err)
	}
	if err := d.Hypercall(HypercallConsoleIO, "hello from guest"); err != nil {
		t.Fatalf("console_io: %v", err)
	}
	if !h.ConsoleContains("hello from guest") {
		t.Error("console_io output missing")
	}
	if err := d.Hypercall(HypercallMMUUpdate, "wrong type"); !errors.Is(err, ErrInval) {
		t.Errorf("wrong arg type: err = %v, want ErrInval", err)
	}
	// Registration: duplicates and nil handlers are rejected.
	if err := h.RegisterHypercall(HypercallMMUUpdate, func(*Domain, any) error { return nil }); !errors.Is(err, ErrInval) {
		t.Errorf("duplicate registration: err = %v", err)
	}
	if err := h.RegisterHypercall(77, nil); !errors.Is(err, ErrInval) {
		t.Errorf("nil handler: err = %v", err)
	}
	called := false
	if err := h.RegisterHypercall(77, func(*Domain, any) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := d.Hypercall(77, nil); err != nil || !called {
		t.Errorf("custom hypercall: err = %v called = %v", err, called)
	}
}

func TestMMUExtPinUnpin(t *testing.T) {
	h := bootVersion(t, Version48())
	d := mustDomain(t, h, "guest01", 64, false)
	// Build a fresh, empty L1 in guest memory and pin it.
	pfn, _ := d.AllocPage()
	mfn, _ := d.P2M().Lookup(pfn)
	// Must first drop the writable physmap mapping.
	ptr := leafPTEAddr(t, h, d, d.PhysmapVA(pfn))
	old, _ := pagetable.ReadEntry(h.Memory(), ptr.Frame(), int(ptr.Offset()/8))
	if err := d.Hypercall(HypercallMMUUpdate, &MMUUpdateArgs{Updates: []MMUUpdate{{Ptr: ptr, Val: old.WithoutFlags(pagetable.FlagRW)}}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Hypercall(HypercallMMUExtOp, &MMUExtArgs{Op: MMUExtPinL1Table, MFN: mfn}); err != nil {
		t.Fatalf("pin: %v", err)
	}
	pi, _ := h.Memory().Info(mfn)
	if !pi.Pinned || pi.Type != mm.TypeL1 {
		t.Errorf("after pin: %+v", *pi)
	}
	if err := d.Hypercall(HypercallMMUExtOp, &MMUExtArgs{Op: MMUExtPinL1Table, MFN: mfn}); !errors.Is(err, ErrInval) {
		t.Errorf("double pin: err = %v", err)
	}
	if err := d.Hypercall(HypercallMMUExtOp, &MMUExtArgs{Op: MMUExtUnpinTable, MFN: mfn}); err != nil {
		t.Fatalf("unpin: %v", err)
	}
	pi, _ = h.Memory().Info(mfn)
	if pi.Pinned {
		t.Error("still pinned after unpin")
	}
	if err := d.Hypercall(HypercallMMUExtOp, &MMUExtArgs{Op: MMUExtUnpinTable, MFN: mfn}); !errors.Is(err, ErrInval) {
		t.Errorf("double unpin: err = %v", err)
	}
}

func TestGrantV2DowngradeLeak(t *testing.T) {
	for _, tt := range []struct {
		version Version
		leaks   bool
	}{
		{Version46(), true},
		{Version48(), false},
	} {
		t.Run(tt.version.Name, func(t *testing.T) {
			h := bootVersion(t, tt.version)
			d := mustDomain(t, h, "guest01", 64, false)
			if err := d.Hypercall(HypercallGrantTableOp, &GrantSetVersionArgs{Version: 2}); err != nil {
				t.Fatalf("v2: %v", err)
			}
			status := d.GrantStatusFrames()
			if len(status) != 1 {
				t.Fatalf("status frames = %d", len(status))
			}
			if err := d.Hypercall(HypercallGrantTableOp, &GrantSetVersionArgs{Version: 1}); err != nil {
				t.Fatalf("v1: %v", err)
			}
			pi, err := h.Memory().Info(status[0])
			if err != nil {
				t.Fatal(err)
			}
			if tt.leaks {
				if pi.RefCount == 0 {
					t.Error("leaky profile released the status reference")
				}
				if len(d.GrantStatusFrames()) == 0 {
					t.Error("leak state not auditable")
				}
			} else {
				if pi.Owner != mm.DomInvalid {
					t.Errorf("status frame not freed: owner dom%d", pi.Owner)
				}
				if len(d.GrantStatusFrames()) != 0 {
					t.Error("status frames remain after clean downgrade")
				}
			}
		})
	}
}

func TestGrantAccessAndMap(t *testing.T) {
	h := bootVersion(t, Version48())
	a := mustDomain(t, h, "guest01", 64, false)
	b := mustDomain(t, h, "guest02", 64, false)
	if err := a.Hypercall(HypercallGrantTableOp, &GrantAccessArgs{Ref: 3, ToDom: b.ID(), PFN: 5}); err != nil {
		t.Fatalf("grant access: %v", err)
	}
	m := &GrantMapArgs{FromDom: a.ID(), Ref: 3}
	if err := b.Hypercall(HypercallGrantTableOp, m); err != nil {
		t.Fatalf("grant map: %v", err)
	}
	want, _ := a.P2M().Lookup(5)
	if m.MFN != want {
		t.Errorf("mapped %#x, want %#x", uint64(m.MFN), uint64(want))
	}
	// A third domain cannot map it.
	c := mustDomain(t, h, "guest03", 64, false)
	if err := c.Hypercall(HypercallGrantTableOp, &GrantMapArgs{FromDom: a.ID(), Ref: 3}); !errors.Is(err, ErrPerm) {
		t.Errorf("foreign map: err = %v, want ErrPerm", err)
	}
	if err := b.Hypercall(HypercallGrantTableOp, &GrantUnmapArgs{FromDom: a.ID(), Ref: 3}); err != nil {
		t.Fatalf("unmap: %v", err)
	}
	if err := b.Hypercall(HypercallGrantTableOp, &GrantUnmapArgs{FromDom: a.ID(), Ref: 3}); !errors.Is(err, ErrInval) {
		t.Errorf("double unmap: err = %v", err)
	}
}

func TestEventChannels(t *testing.T) {
	h := bootVersion(t, Version48())
	a := mustDomain(t, h, "guest01", 64, false)
	b := mustDomain(t, h, "guest02", 64, false)
	alloc := &EventAllocArgs{RemoteDom: int32(b.ID())}
	if err := a.Hypercall(HypercallEventChannelOp, alloc); err != nil {
		t.Fatalf("alloc: %v", err)
	}
	ballocs := &EventAllocArgs{RemoteDom: int32(a.ID())}
	if err := b.Hypercall(HypercallEventChannelOp, ballocs); err != nil {
		t.Fatalf("alloc b: %v", err)
	}
	if err := a.Hypercall(HypercallEventChannelOp, &EventBindArgs{
		Port: alloc.Port, RemoteDom: int32(b.ID()), RemotePort: ballocs.Port,
	}); err != nil {
		t.Fatalf("bind: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := a.Hypercall(HypercallEventChannelOp, &EventSendArgs{Port: alloc.Port}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if got := b.PendingEvents(); got != 5 {
		t.Errorf("pending = %d, want 5", got)
	}
	n, err := b.ConsumeEvents(ballocs.Port)
	if err != nil || n != 5 {
		t.Errorf("consume = %d, %v", n, err)
	}
	if b.PendingEvents() != 0 {
		t.Error("events not consumed")
	}
	// Sending on an unbound port fails.
	ua := &EventAllocArgs{RemoteDom: int32(b.ID())}
	if err := a.Hypercall(HypercallEventChannelOp, ua); err != nil {
		t.Fatal(err)
	}
	if err := a.Hypercall(HypercallEventChannelOp, &EventSendArgs{Port: ua.Port}); !errors.Is(err, ErrInval) {
		t.Errorf("send unbound: err = %v", err)
	}
}

func TestDomainSpaceGuestCannotTouchHypervisorText(t *testing.T) {
	h := bootVersion(t, Version46())
	d := mustDomain(t, h, "guest01", 64, false)
	// Guest-initiated access to the IDT's address must fault even on the
	// vulnerable version; only the hypercall primitive reaches it.
	if err := d.VCPU().ReadVirt(h.IDTR().Base, make([]byte, 8), true); err == nil {
		t.Error("guest read of hv text succeeded")
	}
	// Hypervisor-privilege access through the same vCPU resolves.
	if err := d.VCPU().ReadVirt(h.IDTR().Base, make([]byte, 8), false); err != nil {
		t.Errorf("hv-privilege read failed: %v", err)
	}
}

// TestReservedL4SlotsProtected pins the is_guest_l4_slot semantics the
// hypercall storms uncovered: guests can neither modify their L4's
// reserved Xen slots nor smuggle entries through them when promoting a
// fresh L4.
func TestReservedL4SlotsProtected(t *testing.T) {
	h := bootVersion(t, Version48())
	d := mustDomain(t, h, "guest01", 64, false)
	// Direct update of the Xen slot is -EPERM.
	ptr, err := pagetable.EntryAddr(d.CR3(), XenL4Slot)
	if err != nil {
		t.Fatal(err)
	}
	err = d.Hypercall(HypercallMMUUpdate, &MMUUpdateArgs{Updates: []MMUUpdate{{Ptr: ptr, Val: 0}}})
	if !errors.Is(err, ErrPerm) {
		t.Errorf("clearing the Xen slot: err = %v, want ErrPerm", err)
	}
	// A guest-crafted L4 gets the canonical slots installed on
	// promotion, replacing whatever was there.
	pfn, err := d.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	mfn, err := d.P2M().Lookup(pfn)
	if err != nil {
		t.Fatal(err)
	}
	// Unmap it so it can be promoted, then scribble into its Xen slot.
	l1ptr := leafPTEAddr(t, h, d, d.PhysmapVA(pfn))
	if err := d.Hypercall(HypercallMMUUpdate, &MMUUpdateArgs{Updates: []MMUUpdate{{Ptr: l1ptr, Val: 0}}}); err != nil {
		t.Fatal(err)
	}
	bogus := pagetable.NewEntry(0x42, pagetable.FlagPresent|pagetable.FlagRW|pagetable.FlagUser)
	if err := pagetable.WriteEntry(h.Memory(), mfn, XenL4Slot, bogus); err != nil {
		t.Fatal(err)
	}
	if err := d.Hypercall(HypercallMMUExtOp, &MMUExtArgs{Op: MMUExtNewBaseptr, MFN: mfn}); err != nil {
		t.Fatalf("new baseptr: %v", err)
	}
	got, err := pagetable.ReadEntry(h.Memory(), mfn, XenL4Slot)
	if err != nil {
		t.Fatal(err)
	}
	if got.MFN() != h.XenL3() {
		t.Errorf("promoted L4 Xen slot = %v, want shared L3 %#x", got, uint64(h.XenL3()))
	}
	if d.CR3() != mfn {
		t.Errorf("cr3 = %#x, want %#x", uint64(d.CR3()), uint64(mfn))
	}
}

// TestPinL2RecursivelyValidates builds a two-level table structure in
// guest data pages and pins the L2: validation must descend into the L1
// and take balanced references, and unpinning must release them.
func TestPinL2RecursivelyValidates(t *testing.T) {
	h := bootVersion(t, Version48())
	d := mustDomain(t, h, "guest01", 64, false)

	newUnmapped := func() (mm.PFN, mm.MFN) {
		pfn, err := d.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		ptr := leafPTEAddr(t, h, d, d.PhysmapVA(pfn))
		if err := d.Hypercall(HypercallMMUUpdate, &MMUUpdateArgs{Updates: []MMUUpdate{{Ptr: ptr, Val: 0}}}); err != nil {
			t.Fatal(err)
		}
		mfn, err := d.P2M().Lookup(pfn)
		if err != nil {
			t.Fatal(err)
		}
		return pfn, mfn
	}
	_, l1 := newUnmapped()
	_, l2 := newUnmapped()
	dataMFN, err := d.P2M().Lookup(6)
	if err != nil {
		t.Fatal(err)
	}
	// Craft contents via raw writes (the guest writing its own pages
	// before handing them to the hypervisor for validation).
	if err := pagetable.WriteEntry(h.Memory(), l1, 3,
		pagetable.NewEntry(dataMFN, pagetable.FlagPresent|pagetable.FlagUser)); err != nil {
		t.Fatal(err)
	}
	if err := pagetable.WriteEntry(h.Memory(), l2, 7,
		pagetable.NewEntry(l1, pagetable.FlagPresent|pagetable.FlagUser)); err != nil {
		t.Fatal(err)
	}
	if err := d.Hypercall(HypercallMMUExtOp, &MMUExtArgs{Op: MMUExtPinL2Table, MFN: l2}); err != nil {
		t.Fatalf("pin L2: %v", err)
	}
	l1pi, _ := h.Memory().Info(l1)
	if l1pi.Type != mm.TypeL1 || l1pi.TypeCount != 1 || l1pi.RefCount == 0 {
		t.Errorf("l1 after pin: %+v", *l1pi)
	}
	if findings := h.AuditMemory(); len(findings) != 0 {
		t.Errorf("audit after pin:\n%s", strings.Join(findings, "\n"))
	}
	if err := d.Hypercall(HypercallMMUExtOp, &MMUExtArgs{Op: MMUExtUnpinTable, MFN: l2}); err != nil {
		t.Fatalf("unpin: %v", err)
	}
	l1pi, _ = h.Memory().Info(l1)
	if l1pi.TypeCount != 0 || l1pi.RefCount != 0 {
		t.Errorf("l1 after unpin: %+v", *l1pi)
	}
	// A malformed inner entry makes the whole pin fail cleanly.
	if err := pagetable.WriteEntry(h.Memory(), l1, 4,
		pagetable.NewEntry(h.XenL3(), pagetable.FlagPresent|pagetable.FlagRW)); err != nil {
		t.Fatal(err)
	}
	if err := d.Hypercall(HypercallMMUExtOp, &MMUExtArgs{Op: MMUExtPinL2Table, MFN: l2}); !errors.Is(err, ErrInval) {
		t.Errorf("pin with foreign inner entry: err = %v", err)
	}
	if findings := h.AuditMemory(); len(findings) != 0 {
		t.Errorf("audit after failed pin (unwind leak):\n%s", strings.Join(findings, "\n"))
	}
}

// TestBootFailsOnTinyMachines exercises the boot error paths: the
// hypervisor refuses machines too small for its own reservations, and a
// domain build fails cleanly when machine memory runs out.
func TestBootFailsOnTinyMachines(t *testing.T) {
	mem, err := mm.NewMemory(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(mem, Version46()); err == nil {
		t.Error("boot on an 8-frame machine succeeded")
	}
	// Enough for boot, not for a domain.
	mem2, err := mm.NewMemory(60)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(mem2, Version46())
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	if _, err := h.CreateDomain("guest01", 64, false); err == nil {
		t.Error("domain larger than free memory created")
	}
}
