package hv_test

import (
	"errors"
	"testing"

	"repro/internal/cpu"
	"repro/internal/hv"
	"repro/internal/inject"
	"repro/internal/mm"
	"repro/internal/pagetable"
)

// injectionSnapshot boots an injector build with a guest, seals it and
// returns the prototype, the guest's ID and two forks of the snapshot.
func injectionSnapshot(t *testing.T) (proto *hv.Hypervisor, guest mm.DomID, a, b *hv.Hypervisor) {
	t.Helper()
	mem, err := mm.NewMemory(2048)
	if err != nil {
		t.Fatal(err)
	}
	proto, err = hv.New(mem, hv.Version46())
	if err != nil {
		t.Fatal(err)
	}
	if err := inject.Enable(proto); err != nil {
		t.Fatal(err)
	}
	if _, err := proto.CreateDomain("dom0", 64, true); err != nil {
		t.Fatal(err)
	}
	g, err := proto.CreateDomain("guest01", 64, false)
	if err != nil {
		t.Fatal(err)
	}
	ms, hs := mem.Seal(), proto.Seal()
	return proto, g.ID(), hs.Fork(ms.Fork()), hs.Fork(ms.Fork())
}

func domain(t *testing.T, h *hv.Hypervisor, id mm.DomID) *hv.Domain {
	t.Helper()
	d, err := h.Domain(id)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func readPhys64(t *testing.T, h *hv.Hypervisor, addr mm.PhysAddr) uint64 {
	t.Helper()
	var b [8]byte
	if err := h.Memory().ReadPhys(addr, b[:]); err != nil {
		t.Fatal(err)
	}
	var v uint64
	for i := range b {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// TestForksDispatchOnTheirOwnMachine: two forks of one injector
// snapshot share the build's hypercall and trap tables, and every
// handler still acts on the fork it is dispatched on — an
// arbitrary_access write, an mmu_update and a double fault on fork A
// reach neither fork B nor the prototype.
func TestForksDispatchOnTheirOwnMachine(t *testing.T) {
	proto, id, a, b := injectionSnapshot(t)
	da, db := domain(t, a, id), domain(t, b, id)
	all := map[string]*hv.Hypervisor{"A": a, "B": b, "prototype": proto}

	target := mm.PhysAddr(uint64(da.Base().Addr()) + 3*mm.PageSize + 0x40)
	before := readPhys64(t, proto, target)
	if err := inject.NewClient(da).ArbitraryAccess(uint64(target),
		[]byte{0xef, 0xbe, 0xad, 0xde, 0, 0, 0, 0}, inject.WritePhys); err != nil {
		t.Fatalf("arbitrary_access on A: %v", err)
	}
	for name, h := range all {
		want := before
		if h == a {
			want = 0xdeadbeef
		}
		if got := readPhys64(t, h, target); got != want {
			t.Errorf("arbitrary_access on A: %s reads %#x at %#x, want %#x", name, got, uint64(target), want)
		}
	}

	ptr, err := pagetable.LeafEntryAddr(a.Memory(), da.CR3(), da.PhysmapVA(5))
	if err != nil {
		t.Fatal(err)
	}
	mapped := readPhys64(t, proto, ptr)
	if mapped == 0 {
		t.Fatalf("physmap entry at %#x is not mapped in the prototype", uint64(ptr))
	}
	if err := da.Hypercall(hv.HypercallMMUUpdate, &hv.MMUUpdateArgs{Updates: []hv.MMUUpdate{{Ptr: ptr, Val: 0}}}); err != nil {
		t.Fatalf("mmu_update on A: %v", err)
	}
	for name, h := range all {
		want := mapped
		if h == a {
			want = 0
		}
		if got := readPhys64(t, h, ptr); got != want {
			t.Errorf("mmu_update on A: %s reads PTE %#x, want %#x", name, got, want)
		}
	}

	// A #PF on B runs the native handler on B alone.
	if err := db.VCPU().DeliverException(cpu.VectorPageFault); err != nil {
		t.Fatalf("#PF on B: %v", err)
	}
	if a.PageFaults() != proto.PageFaults() || b.PageFaults() != proto.PageFaults()+1 {
		t.Errorf("#PF on B counted A %d, B %d, prototype %d", a.PageFaults(), b.PageFaults(), proto.PageFaults())
	}

	if err := da.VCPU().DeliverException(cpu.VectorDoubleFault); !errors.Is(err, cpu.ErrCrashed) {
		t.Fatalf("double fault on A: err = %v, want ErrCrashed", err)
	}
	if !a.Crashed() || b.Crashed() || proto.Crashed() {
		t.Errorf("double fault on A: crashed A %v, B %v, prototype %v", a.Crashed(), b.Crashed(), proto.Crashed())
	}
	if err := db.Hypercall(hv.HypercallConsoleIO, "alive"); err != nil || !b.ConsoleContains("alive") || proto.ConsoleContains("alive") {
		t.Errorf("console_io on B after A crashed: %v", err)
	}
}

// TestForkRefusesRegistration: a fork's dispatch table is its sealed
// build's, so RegisterHypercall on a fork fails and adds nothing that
// the other fork could reach.
func TestForkRefusesRegistration(t *testing.T) {
	_, id, a, b := injectionSnapshot(t)
	called := false
	if err := a.RegisterHypercall(99, func(*hv.Domain, any) error { called = true; return nil }); !errors.Is(err, hv.ErrInval) {
		t.Errorf("RegisterHypercall on a fork: err = %v, want ErrInval", err)
	}
	for name, h := range map[string]*hv.Hypervisor{"A": a, "B": b} {
		if err := domain(t, h, id).Hypercall(99, nil); !errors.Is(err, hv.ErrNoSys) {
			t.Errorf("hypercall 99 on %s: err = %v, want ErrNoSys", name, err)
		}
	}
	if called {
		t.Error("a handler registered on a fork was dispatched")
	}
	if err := inject.NewClient(domain(t, b, id)).ArbitraryAccess(0, make([]byte, 8), inject.ReadPhys); err != nil {
		t.Errorf("the build's injector on B: %v", err)
	}
}
