package mm

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/coverage"
	"repro/internal/faults"
	"repro/internal/span"
	"repro/internal/telemetry"
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
	s := m.Seal(nil)

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
	s := m.Seal(nil)

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
	s := m.Seal(nil)

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

// TestRecycleReturnsPristineFork: a recycled fork comes back from the
// pool with all COW state reset, indistinguishable from a fresh fork.
func TestRecycleReturnsPristineFork(t *testing.T) {
	m := testMemory(t, 128)
	mfn, err := m.Alloc(Dom0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WritePhys(mfn.Addr(), []byte("sealed")); err != nil {
		t.Fatal(err)
	}
	s := m.Seal(nil)

	f := s.Fork()
	if err := f.WritePhys(mfn.Addr(), []byte("dirty!")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Alloc(Dom0); err != nil {
		t.Fatal(err)
	}
	s.Recycle(f)
	if got := s.PoolSize(); got != 1 {
		t.Fatalf("pool size %d after recycle, want 1", got)
	}

	g := s.Fork()
	if g != f {
		t.Fatalf("fork after recycle is not the pooled instance")
	}
	buf := make([]byte, 6)
	if err := g.ReadPhys(mfn.Addr(), buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "sealed" {
		t.Errorf("recycled fork reads %q, want sealed content", buf)
	}
	// The allocator was reset: the recycled fork hands out the same
	// lowest frame a brand-new fork would.
	got, err := g.Alloc(Dom0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Fork().Alloc(Dom0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("recycled fork allocated %#x, fresh fork %#x", uint64(got), uint64(want))
	}
}

// TestRecycleRejectsForeignMemory: only forks of this snapshot enter
// the pool; fresh machines and other snapshots' forks are ignored.
func TestRecycleRejectsForeignMemory(t *testing.T) {
	s := testMemory(t, 64).Seal(nil)
	s.Recycle(testMemory(t, 64))                  // fresh machine
	s.Recycle(testMemory(t, 64).Seal(nil).Fork()) // another snapshot's fork
	s.Recycle(nil)
	if got := s.PoolSize(); got != 0 {
		t.Errorf("pool size %d after foreign recycles, want 0", got)
	}
}

// TestJournalReplayMatchesFreshBoot: replaying the boot journal into
// fresh sinks reproduces exactly the events, counters, coverage edges
// and span structure the same operations emit when the sinks are
// attached live.
func TestJournalReplayMatchesFreshBoot(t *testing.T) {
	fc := func(mfn uint64) string {
		if mfn < 4 {
			return "hv-text"
		}
		return "general"
	}
	ops := func(m *Memory) {
		if _, err := m.AllocRange(4, DomXen); err != nil {
			t.Fatal(err)
		}
		f, err := m.Alloc(Dom0)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.GetType(f, TypeL1); err != nil {
			t.Fatal(err)
		}
		if err := m.PutType(f); err != nil {
			t.Fatal(err)
		}
		g, err := m.Alloc(Dom0)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Free(g); err != nil {
			t.Fatal(err)
		}
	}

	// Reference: the same operations with live sinks.
	ref := testMemory(t, 64)
	refRec := telemetry.NewRecorder(0)
	refRec.AttachCoverage(coverage.NewMap())
	refRec.Coverage().SetFrameClassifier(fc)
	refTree := span.NewTree("cell", refRec.Emitted)
	ref.AttachTelemetry(refRec)
	ref.AttachSpans(refTree)
	ops(ref)

	// Snapshot path: journal with no sinks, seal, fork, replay.
	proto := testMemory(t, 64)
	proto.StartBootJournal()
	ops(proto)
	s := proto.Seal(fc)
	fm := s.Fork()
	rec := telemetry.NewRecorder(0)
	rec.AttachCoverage(coverage.NewMap())
	tree := span.NewTree("cell", rec.Emitted)
	fm.AttachTelemetry(rec)
	fm.AttachSpans(tree)
	s.Replay(rec, tree)

	if got, want := rec.Emitted(), refRec.Emitted(); got != want {
		t.Errorf("replay emitted %d events, fresh boot %d", got, want)
	}
	if got := append(append([]telemetry.Event(nil), rec.Boot()...), rec.Events()...); !reflect.DeepEqual(got, refRec.Events()) {
		t.Errorf("replayed events differ from fresh boot\nreplay: %v\nfresh:  %v", got, refRec.Events())
	}
	if !reflect.DeepEqual(rec.Counters(), refRec.Counters()) {
		t.Errorf("replayed counters differ from fresh boot\nreplay: %v\nfresh:  %v", rec.Counters(), refRec.Counters())
	}
	got, want := coverage.Canonical(rec.Coverage().Edges()), coverage.Canonical(refRec.Coverage().Edges())
	if got != want || want == "" {
		t.Errorf("replayed coverage differs from fresh boot\nreplay:\n%s\nfresh:\n%s", got, want)
	}
	// Compare the spans' canonical structure; StartNS/EndNS are wall
	// clock and excluded from every canonical surface.
	gs, ws := tree.Spans(), refTree.Spans()
	if len(gs) != len(ws) {
		t.Fatalf("replayed %d spans, fresh boot %d", len(gs), len(ws))
	}
	for i := range gs {
		g, w := gs[i], ws[i]
		g.StartNS, g.EndNS = 0, 0
		w.StartNS, w.EndNS = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Errorf("span %d differs\nreplay: %+v\nfresh:  %+v", i, g, w)
		}
	}
}

// TestForkFaultPlaneCountsFromForkPoint: replay consults no fault
// plane, so an injector attached to a fork after the replay counts only
// the fork's own allocations. A rule armed at the first hit fails the
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
	proto.StartBootJournal()
	boot(proto)
	s := proto.Seal(nil)
	fm := s.Fork()
	rec := telemetry.NewRecorder(0)
	fm.AttachTelemetry(rec)
	s.Replay(rec, nil)
	forkMFN, forkInj := nextTwo(fm)

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
