package pagetable

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mm"
)

// testEnv wires a machine, a trusted builder and a permissive walker.
type testEnv struct {
	mem    *mm.Memory
	b      *Builder
	walker *Walker
	root   mm.MFN
}

func newTestEnv(t *testing.T, frames int) *testEnv {
	t.Helper()
	mem, err := mm.NewMemory(frames)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(mem, func() (mm.MFN, error) { return mem.Alloc(mm.DomXen) })
	root, err := b.NewRoot()
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{mem: mem, b: b, walker: NewWalker(mem, nil), root: root}
}

func (e *testEnv) mustAlloc(t *testing.T) mm.MFN {
	t.Helper()
	mfn, err := e.mem.Alloc(mm.DomXen)
	if err != nil {
		t.Fatal(err)
	}
	return mfn
}

func TestWalkSimpleMapping(t *testing.T) {
	env := newTestEnv(t, 64)
	target := env.mustAlloc(t)
	const va = 0xffff880000003000
	if err := env.b.Map(env.root, va, target, FlagRW|FlagUser); err != nil {
		t.Fatalf("Map: %v", err)
	}
	walk, err := env.walker.Translate(env.root, va+0x123, AccessWrite, true)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	if walk.MFN != target {
		t.Errorf("walk.MFN = %#x, want %#x", uint64(walk.MFN), uint64(target))
	}
	if want := target.Addr() + 0x123; walk.Phys != want {
		t.Errorf("walk.Phys = %#x, want %#x", uint64(walk.Phys), uint64(want))
	}
	if walk.Levels != 4 || walk.Superpage {
		t.Errorf("expected a 4-level walk, got %d levels superpage=%v", walk.Levels, walk.Superpage)
	}
	if !walk.Writable || !walk.User {
		t.Errorf("permissions = RW:%v US:%v, want true/true", walk.Writable, walk.User)
	}
}

func TestWalkFaults(t *testing.T) {
	env := newTestEnv(t, 64)
	target := env.mustAlloc(t)
	roVA := uint64(0xffff880000001000)
	supVA := uint64(0xffff880000002000)
	nxVA := uint64(0xffff880000004000)
	if err := env.b.Map(env.root, roVA, target, FlagUser); err != nil {
		t.Fatal(err)
	}
	if err := env.b.Map(env.root, supVA, target, FlagRW); err != nil {
		t.Fatal(err)
	}
	if err := env.b.Map(env.root, nxVA, target, FlagRW|FlagUser|FlagNX); err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name   string
		va     uint64
		acc    Access
		guest  bool
		reason string
	}{
		{"write to read-only", roVA, AccessWrite, true, "read-only"},
		{"guest touch of supervisor page", supVA, AccessRead, true, "supervisor-only"},
		{"exec of NX page", nxVA, AccessExec, true, "no-execute"},
		{"unmapped address", 0xffff880000009000, AccessRead, true, "not present"},
		{"non-canonical", 0x0000900000000000, AccessRead, true, "non-canonical"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := env.walker.Translate(env.root, tt.va, tt.acc, tt.guest)
			var fault *Fault
			if !errors.As(err, &fault) {
				t.Fatalf("err = %v, want *Fault", err)
			}
			if fault.VA != tt.va {
				t.Errorf("fault.VA = %#x, want %#x", fault.VA, tt.va)
			}
			if got := fault.Error(); !contains(got, tt.reason) {
				t.Errorf("fault = %q, want reason containing %q", got, tt.reason)
			}
		})
	}

	// Read of the read-only page is fine; the hypervisor (non-guest) may
	// touch supervisor pages.
	if _, err := env.walker.Translate(env.root, roVA, AccessRead, true); err != nil {
		t.Errorf("read of RO page: %v", err)
	}
	if _, err := env.walker.Translate(env.root, supVA, AccessRead, false); err != nil {
		t.Errorf("hypervisor read of supervisor page: %v", err)
	}
}

func TestWalkSuperpage(t *testing.T) {
	env := newTestEnv(t, 1024)
	base, err := env.mem.AllocRange(512, mm.DomXen)
	if err != nil {
		t.Fatal(err)
	}
	const va = 0xffff880040000000 // 2MiB-aligned
	if err := env.b.MapSuperpage(env.root, va, base, FlagRW|FlagUser); err != nil {
		t.Fatalf("MapSuperpage: %v", err)
	}
	// An address deep inside the superpage resolves to base + L1 index.
	probe := uint64(va) + 37*mm.PageSize + 0x10
	walk, err := env.walker.Translate(env.root, probe, AccessWrite, true)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	if !walk.Superpage {
		t.Error("walk did not report a superpage leaf")
	}
	if want := base + 37; walk.MFN != want {
		t.Errorf("walk.MFN = %#x, want %#x", uint64(walk.MFN), uint64(want))
	}
	if walk.Levels != 3 {
		t.Errorf("superpage walk consulted %d levels, want 3", walk.Levels)
	}
}

func TestWalkSuperpagePastEndOfMemory(t *testing.T) {
	env := newTestEnv(t, 64)
	// Point a superpage at the last frame so base+index overflows memory.
	last := mm.MFN(env.mem.NumFrames() - 1)
	const va = 0xffff880040000000
	if err := env.b.MapSuperpage(env.root, va, last, FlagRW|FlagUser); err != nil {
		t.Fatal(err)
	}
	if _, err := env.walker.Translate(env.root, va+5*mm.PageSize, AccessRead, true); err == nil {
		t.Error("walk through out-of-memory superpage succeeded")
	}
}

func TestWalkSetsAccessedAndDirty(t *testing.T) {
	env := newTestEnv(t, 64)
	target := env.mustAlloc(t)
	const va = 0xffff880000005000
	if err := env.b.Map(env.root, va, target, FlagRW|FlagUser); err != nil {
		t.Fatal(err)
	}
	if _, err := env.walker.Translate(env.root, va, AccessRead, true); err != nil {
		t.Fatal(err)
	}
	l1, err := env.b.TableAt(env.root, va, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := Index(va, 1)
	e, err := ReadEntry(env.mem, l1, idx)
	if err != nil {
		t.Fatal(err)
	}
	if e.Flags()&FlagAccessed == 0 {
		t.Error("read did not set the Accessed bit")
	}
	if e.Flags()&FlagDirty != 0 {
		t.Error("read set the Dirty bit")
	}
	if _, err := env.walker.Translate(env.root, va, AccessWrite, true); err != nil {
		t.Fatal(err)
	}
	e, _ = ReadEntry(env.mem, l1, idx)
	if e.Flags()&FlagDirty == 0 {
		t.Error("write did not set the Dirty bit")
	}
}

// TestTranslateAllocatesNothing pins that a successful walk stays on
// the caller's stack: the Walk is returned by value and its tables and
// entries are fixed arrays, for guest and hypervisor walks alike.
func TestTranslateAllocatesNothing(t *testing.T) {
	env := newTestEnv(t, 64)
	const userVA, supVA = 0xffff880000006000, 0xffff880000007000
	if err := env.b.Map(env.root, userVA, env.mustAlloc(t), FlagRW|FlagUser); err != nil {
		t.Fatal(err)
	}
	if err := env.b.Map(env.root, supVA, env.mustAlloc(t), FlagRW); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		va    uint64
		guest bool
	}{
		{"guest", userVA, true},
		{"hypervisor", supVA, false},
	} {
		n := testing.AllocsPerRun(100, func() {
			if _, err := env.walker.Translate(env.root, c.va, AccessWrite, c.guest); err != nil {
				t.Fatalf("%s walk: %v", c.name, err)
			}
		})
		if n != 0 {
			t.Errorf("%s walk allocates %.0f times, want 0", c.name, n)
		}
	}
}

// denyPTWrites models the hardened policy: no guest write access to
// page-table frames.
type denyPTWrites struct{}

func (denyPTWrites) CheckLeaf(mem *mm.Memory, target mm.MFN, acc Access, guest bool) error {
	if !guest || acc != AccessWrite {
		return nil
	}
	pi, err := mem.Info(target)
	if err != nil {
		return err
	}
	if pi.Type.IsPageTable() {
		return fmt.Errorf("hardened: write to %s frame refused", pi.Type)
	}
	return nil
}

func TestWalkPolicyVeto(t *testing.T) {
	env := newTestEnv(t, 64)
	hardened := NewWalker(env.mem, denyPTWrites{})
	target := env.mustAlloc(t)
	if err := env.mem.GetType(target, mm.TypeL4); err != nil {
		t.Fatal(err)
	}
	const va = 0xffff880000006000
	if err := env.b.Map(env.root, va, target, FlagRW|FlagUser); err != nil {
		t.Fatal(err)
	}
	// The permissive walker allows the write that the PTE flags permit...
	if _, err := env.walker.Translate(env.root, va, AccessWrite, true); err != nil {
		t.Fatalf("permissive walker refused: %v", err)
	}
	// ...the hardened walker vetoes it...
	_, err := hardened.Translate(env.root, va, AccessWrite, true)
	var fault *Fault
	if !errors.As(err, &fault) {
		t.Fatalf("hardened walker: err = %v, want *Fault", err)
	}
	// ...but still allows reads, and hypervisor-internal writes.
	if _, err := hardened.Translate(env.root, va, AccessRead, true); err != nil {
		t.Errorf("hardened walker refused a read: %v", err)
	}
	if _, err := hardened.Translate(env.root, va, AccessWrite, false); err != nil {
		t.Errorf("hardened walker refused a hypervisor write: %v", err)
	}
}

func TestBuilderTableAt(t *testing.T) {
	env := newTestEnv(t, 64)
	target := env.mustAlloc(t)
	const va = 0xffff880000007000
	if err := env.b.Map(env.root, va, target, FlagRW|FlagUser); err != nil {
		t.Fatal(err)
	}
	if got, err := env.b.TableAt(env.root, va, 4); err != nil || got != env.root {
		t.Errorf("TableAt level 4 = %#x, %v; want root %#x", uint64(got), err, uint64(env.root))
	}
	l1, err := env.b.TableAt(env.root, va, 1)
	if err != nil {
		t.Fatalf("TableAt level 1: %v", err)
	}
	idx, _ := Index(va, 1)
	e, err := ReadEntry(env.mem, l1, idx)
	if err != nil {
		t.Fatal(err)
	}
	if e.MFN() != target {
		t.Errorf("L1 entry points at %#x, want %#x", uint64(e.MFN()), uint64(target))
	}
	if _, err := env.b.TableAt(env.root, 0xffff881000000000, 1); err == nil {
		t.Error("TableAt for unmapped region succeeded")
	}
}

func TestBuilderMapRange(t *testing.T) {
	env := newTestEnv(t, 128)
	base, err := env.mem.AllocRange(5, mm.DomXen)
	if err != nil {
		t.Fatal(err)
	}
	const va = 0xffff880000100000
	if err := env.b.MapRange(env.root, va, base, 5, FlagRW|FlagUser); err != nil {
		t.Fatalf("MapRange: %v", err)
	}
	for i := 0; i < 5; i++ {
		walk, err := env.walker.Translate(env.root, va+uint64(i)*mm.PageSize, AccessRead, true)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if walk.MFN != base+mm.MFN(i) {
			t.Errorf("page %d resolved to %#x, want %#x", i, uint64(walk.MFN), uint64(base+mm.MFN(i)))
		}
	}
}

func TestBuilderRejectsBadInput(t *testing.T) {
	env := newTestEnv(t, 64)
	if err := env.b.Map(env.root, 0x0000900000000000, 1, FlagRW); err == nil {
		t.Error("Map of non-canonical va succeeded")
	}
	if err := env.b.MapSuperpage(env.root, 0xffff880000001000, 1, FlagRW); err == nil {
		t.Error("MapSuperpage of unaligned va succeeded")
	}
}

func TestBuilderOnTableAllocCallback(t *testing.T) {
	mem, err := mm.NewMemory(64)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(mem, func() (mm.MFN, error) { return mem.Alloc(mm.DomXen) })
	levels := make(map[int]int)
	b.OnTableAlloc = func(_ mm.MFN, level int) { levels[level]++ }
	root, err := b.NewRoot()
	if err != nil {
		t.Fatal(err)
	}
	target, _ := mem.Alloc(mm.DomXen)
	if err := b.Map(root, 0xffff880000000000, target, FlagRW); err != nil {
		t.Fatal(err)
	}
	want := map[int]int{4: 1, 3: 1, 2: 1, 1: 1}
	for level, n := range want {
		if levels[level] != n {
			t.Errorf("level %d allocations = %d, want %d", level, levels[level], n)
		}
	}
}

func TestWalkerAllocationFailurePropagates(t *testing.T) {
	mem, err := mm.NewMemory(2)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(mem, func() (mm.MFN, error) { return mem.Alloc(mm.DomXen) })
	root, err := b.NewRoot()
	if err != nil {
		t.Fatal(err)
	}
	// Only one frame left; building a 4-level mapping needs three more.
	if err := b.Map(root, 0xffff880000000000, 0, FlagRW); !errors.Is(err, mm.ErrOutOfMemory) {
		t.Errorf("Map on full machine: err = %v, want ErrOutOfMemory", err)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
