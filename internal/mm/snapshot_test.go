package mm

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/faults"
)

func testMemory(t *testing.T, frames int) *Memory {
	t.Helper()
	m, err := NewMemory(frames)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSnapshotForkContentIsolation: forks read the sealed content
// through the snapshot and materialize private copies on write, so
// sibling forks and later forks never see each other's writes.
func TestSnapshotForkContentIsolation(t *testing.T) {
	m := testMemory(t, 128)
	mfn, err := m.Alloc(Dom0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WritePhys(mfn.Addr(), []byte("sealed")); err != nil {
		t.Fatal(err)
	}
	s := m.Seal()

	a, b := s.Fork(), s.Fork()
	read := func(fm *Memory) string {
		buf := make([]byte, 6)
		if err := fm.ReadPhys(mfn.Addr(), buf); err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	if got := read(a); got != "sealed" {
		t.Fatalf("fork reads %q through snapshot, want \"sealed\"", got)
	}
	if err := a.WritePhys(mfn.Addr(), []byte("forked")); err != nil {
		t.Fatal(err)
	}
	if got := read(a); got != "forked" {
		t.Errorf("fork a reads %q after its own write", got)
	}
	if got := read(b); got != "sealed" {
		t.Errorf("fork b reads %q after a's write; COW leaked", got)
	}
	if got := read(s.Fork()); got != "sealed" {
		t.Errorf("new fork reads %q; the sealed image was corrupted", got)
	}
}

// TestSnapshotForkAllocatorIsolation: each fork owns a private free-set
// copy, so allocation in one fork is invisible to its siblings and both
// get the same deterministic lowest-first frames.
func TestSnapshotForkAllocatorIsolation(t *testing.T) {
	m := testMemory(t, 128)
	if _, err := m.AllocRange(8, DomXen); err != nil {
		t.Fatal(err)
	}
	s := m.Seal()

	a, b := s.Fork(), s.Fork()
	fa, err := a.Alloc(Dom0)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Alloc(Dom0)
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Errorf("forks allocated different frames (%#x vs %#x); allocator state is shared or nondeterministic", uint64(fa), uint64(fb))
	}
	pa, err := a.Info(fa)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Owner != Dom0 {
		t.Errorf("fork a's frame owned by dom%d, want dom0", pa.Owner)
	}
	// The same frame is still DomXen-free in a third fork: neither the
	// claim nor the page-info write reached the sealed image.
	c := s.Fork()
	pc, err := c.Info(fa)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Owner != DomInvalid {
		t.Errorf("sealed image's frame %#x owned by dom%d after fork allocs, want free", uint64(fa), pc.Owner)
	}
}

// TestSnapshotForkM2PAndTypeIsolation: M2P entries and frame types set
// in a fork stay in the fork.
func TestSnapshotForkM2PAndTypeIsolation(t *testing.T) {
	m := testMemory(t, 128)
	mfn, err := m.Alloc(Dom0)
	if err != nil {
		t.Fatal(err)
	}
	p2m := m.NewP2M(Dom0)
	if err := p2m.Set(7, mfn); err != nil {
		t.Fatal(err)
	}
	s := m.Seal()

	a := s.Fork()
	fp := p2m.ForkOnto(a)
	// Read-through: the sealed translation is visible in the fork.
	if dom, pfn, err := a.M2P(mfn); err != nil || dom != Dom0 || pfn != 7 {
		t.Fatalf("fork M2P = (%v, %v, %v), want (dom0, 7, nil)", dom, pfn, err)
	}
	if _, err := fp.Clear(7); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.M2P(mfn); err == nil {
		t.Error("fork still translates mfn after Clear")
	}
	if err := a.GetType(mfn, TypeL1); err != nil {
		t.Fatal(err)
	}
	// Sibling fork sees the sealed state: translation intact, no type.
	b := s.Fork()
	if dom, pfn, err := b.M2P(mfn); err != nil || dom != Dom0 || pfn != 7 {
		t.Errorf("sibling M2P = (%v, %v, %v) after fork a's Clear, want sealed (dom0, 7, nil)", dom, pfn, err)
	}
	pi, err := b.Info(mfn)
	if err != nil {
		t.Fatal(err)
	}
	if pi.TypeCount != 0 {
		t.Errorf("sibling sees type count %d from fork a's GetType", pi.TypeCount)
	}
	if p2m.Len() != 1 {
		t.Errorf("sealed p2m length %d after fork mutations, want 1", p2m.Len())
	}
}

// TestResetReturnsPristineFork: a reset fork has all COW state reset,
// indistinguishable from a fresh fork.
func TestResetReturnsPristineFork(t *testing.T) {
	m := testMemory(t, 128)
	mfn, err := m.Alloc(Dom0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WritePhys(mfn.Addr(), []byte("sealed")); err != nil {
		t.Fatal(err)
	}
	s := m.Seal()

	f := s.Fork()
	if err := f.WritePhys(mfn.Addr(), []byte("dirty!")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Alloc(Dom0); err != nil {
		t.Fatal(err)
	}
	f.AttachFaults(faults.NewInjector())
	s.Reset(f)
	if f.tel != nil || f.flt != nil || f.spans != nil {
		t.Errorf("reset fork still holds a sink: tel %v flt %v spans %v", f.tel, f.flt, f.spans)
	}

	buf := make([]byte, 6)
	if err := f.ReadPhys(mfn.Addr(), buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "sealed" {
		t.Errorf("reset fork reads %q, want sealed content", buf)
	}
	// The allocator was reset: the reset fork hands out the same
	// lowest frame a brand-new fork would.
	got, err := f.Alloc(Dom0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Fork().Alloc(Dom0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("reset fork allocated %#x, fresh fork %#x", uint64(got), uint64(want))
	}
}

// TestResetKeptBuffersLeakNoBytes: a reset keeps the frame buffers the
// fork materialized and reuses them, but every reused buffer reads the
// sealed bytes or zeros, never what an earlier cell wrote. Three
// frames are dirtied each round: one with sealed content written over,
// one never written before the fork, and one claimed over sealed
// content. Two resets in a row must both come back clean.
func TestResetKeptBuffersLeakNoBytes(t *testing.T) {
	m := testMemory(t, 128)
	sealedMFN, err := m.Alloc(Dom0)
	if err != nil {
		t.Fatal(err)
	}
	sealedPage := make([]byte, PageSize)
	for i := range sealedPage {
		sealedPage[i] = byte(i*7 + 1)
	}
	if err := m.WritePhys(sealedMFN.Addr(), sealedPage); err != nil {
		t.Fatal(err)
	}
	// A frame with sealed content that is free at seal time, so a
	// fork's allocation claims it over that content.
	freedMFN, err := m.Alloc(Dom0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WritePhys(freedMFN.Addr(), sealedPage); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(freedMFN); err != nil {
		t.Fatal(err)
	}
	zeroMFN := MFN(100)
	s := m.Seal()

	zeros := make([]byte, PageSize)
	junk := make([]byte, PageSize)
	for i := range junk {
		junk[i] = 0xa5
	}
	page := func(f *Memory, mfn MFN) []byte {
		t.Helper()
		buf := make([]byte, PageSize)
		if err := f.ReadPhys(mfn.Addr(), buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	f := s.Fork()
	for round := 1; round <= 3; round++ {
		if got := page(f, sealedMFN); !reflect.DeepEqual(got, sealedPage) {
			t.Fatalf("round %d: sealed frame does not read the sealed bytes", round)
		}
		if got := page(f, zeroMFN); !reflect.DeepEqual(got, zeros) {
			t.Fatalf("round %d: never-written frame does not read zeros", round)
		}
		if got := page(f, freedMFN); !reflect.DeepEqual(got, sealedPage) {
			t.Fatalf("round %d: free sealed frame does not read the sealed bytes", round)
		}
		if round == 3 {
			break
		}
		if err := f.WritePhys(sealedMFN.Addr(), junk[:PageSize/2]); err != nil {
			t.Fatal(err)
		}
		if err := f.WritePhys(zeroMFN.Addr()+8, junk[:64]); err != nil {
			t.Fatal(err)
		}
		got, err := f.Alloc(Dom0)
		if err != nil {
			t.Fatal(err)
		}
		if got != freedMFN {
			t.Fatalf("round %d: fork allocated %#x, want the freed sealed frame %#x", round, uint64(got), uint64(freedMFN))
		}
		if claimed := page(f, freedMFN); !reflect.DeepEqual(claimed, zeros) {
			t.Fatalf("round %d: claimed frame does not read zeros", round)
		}
		if err := f.WritePhys(freedMFN.Addr(), junk[:128]); err != nil {
			t.Fatal(err)
		}
		if len(f.dirtyFrames) != 3 {
			t.Fatalf("round %d: %d dirty frames, want 3", round, len(f.dirtyFrames))
		}
		// After the first reset the three frames materialize from the
		// three kept buffers, allocating none.
		if len(f.kept) != 0 {
			t.Fatalf("round %d: %d kept buffers left unused", round, len(f.kept))
		}
		s.Reset(f)
		if len(f.kept) != 3 {
			t.Fatalf("round %d: reset kept %d buffers, want 3", round, len(f.kept))
		}
	}
}

// TestLiveForksNeverShareABuffer: two live forks of one snapshot, one
// of them reset and reused, never back a frame with the same buffer.
func TestLiveForksNeverShareABuffer(t *testing.T) {
	m := testMemory(t, 64)
	s := m.Seal()
	a, b := s.Fork(), s.Fork()
	for _, f := range []*Memory{a, b} {
		for mfn := MFN(0); mfn < 4; mfn++ {
			if err := f.WriteU64(mfn.Addr(), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Reset(a)
	for mfn := MFN(2); mfn < 6; mfn++ {
		if err := a.WriteU64(mfn.Addr(), 2); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[*[PageSize]byte]string)
	for name, f := range map[string]*Memory{"a": a, "b": b} {
		for mfn, buf := range f.frames {
			if buf == nil {
				continue
			}
			if other, ok := seen[buf]; ok {
				t.Fatalf("fork %s frame %#x shares its buffer with %s", name, mfn, other)
			}
			seen[buf] = name
		}
	}
	if got, err := b.ReadU64(MFN(2).Addr()); err != nil || got != 1 {
		t.Errorf("fork b frame 2 reads %d (err %v) after a reused its buffers, want 1", got, err)
	}
}

// TestResetRejectsForeignMemory: only forks of this snapshot can be
// reset to it; fresh machines and other snapshots' forks panic.
func TestResetRejectsForeignMemory(t *testing.T) {
	s := testMemory(t, 64).Seal()
	for name, m := range map[string]*Memory{
		"fresh machine":         testMemory(t, 64),
		"other snapshot's fork": testMemory(t, 64).Seal().Fork(),
		"nil":                   nil,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reset of a %s did not panic", name)
				}
			}()
			s.Reset(m)
		}()
	}
}

// TestForkFaultPlaneCountsFromForkPoint: the sealed boot consulted no
// fault plane, so an injector attached to a fork counts only the fork's
// own allocations. A rule armed at the first hit fails the
// fork's next allocation exactly as it fails the next allocation of a
// machine that booted the same way and had the plane attached after
// its boot, and the sealed image is untouched for a clean sibling.
func TestForkFaultPlaneCountsFromForkPoint(t *testing.T) {
	boot := func(m *Memory) {
		if _, err := m.AllocRange(4, DomXen); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Alloc(Dom0); err != nil {
			t.Fatal(err)
		}
	}
	// nextTwo attaches a plane armed at its first SiteAlloc hit, then
	// allocates twice: the first must fail injected, the second must
	// succeed. It returns the second frame and the plane.
	nextTwo := func(m *Memory) (MFN, *faults.Injector) {
		t.Helper()
		inj := faults.NewInjector().Arm(faults.SiteAlloc, 1)
		m.AttachFaults(inj)
		if _, err := m.Alloc(Dom0); !errors.Is(err, faults.ErrInjected) || !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("first alloc after attach: err = %v, want an injected ErrOutOfMemory", err)
		}
		mfn, err := m.Alloc(Dom0)
		if err != nil {
			t.Fatalf("second alloc after attach: %v", err)
		}
		return mfn, inj
	}

	fresh := testMemory(t, 64)
	boot(fresh)
	freshMFN, freshInj := nextTwo(fresh)

	proto := testMemory(t, 64)
	boot(proto)
	s := proto.Seal()
	forkMFN, forkInj := nextTwo(s.Fork())

	if forkMFN != freshMFN {
		t.Errorf("fork allocated %#x after the fault, fresh boot %#x", uint64(forkMFN), uint64(freshMFN))
	}
	if got, want := forkInj.Hits(faults.SiteAlloc), freshInj.Hits(faults.SiteAlloc); got != 2 || got != want {
		t.Errorf("fork plane counted %d alloc hits, fresh boot %d; want 2 on both (boot consults never count)", got, want)
	}
	if got, want := forkInj.Fired(), freshInj.Fired(); !reflect.DeepEqual(got, want) || len(got) != 1 {
		t.Errorf("fork fired %v, fresh boot %v; want the one armed rule on both", got, want)
	}
	// A clean sibling fork takes the first free frame the faulted fork
	// left untaken: the failed allocation claimed nothing in the image.
	sib := s.Fork()
	mfn, err := sib.Alloc(Dom0)
	if err != nil {
		t.Fatalf("clean sibling alloc failed after faulted fork: %v", err)
	}
	if mfn != forkMFN {
		t.Errorf("clean sibling allocated %#x, want %#x (the faulted fork's first successful frame)", uint64(mfn), uint64(forkMFN))
	}
}
