package hv

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/pagetable"
)

// TestSnapshotResetClearsWhatTheCellChanged: a fork dirtied in every
// way a cell can dirty it — event flood, grant-status leak, a zombied
// domain, a paused one, a filled TLB, a crash, a fault plane — comes
// back from Reset with the prototype's state, its own shell objects and
// none of the cell's leftovers.
func TestSnapshotResetClearsWhatTheCellChanged(t *testing.T) {
	h := bootVersion(t, Version46())
	mustDomain(t, h, "dom0", 64, true)
	g := mustDomain(t, h, "guest01", 64, false)
	ms, hs := h.Memory().Seal(), h.Seal()

	fm := ms.Fork()
	f := hs.Fork(fm)
	fd, err := f.Domain(g.ID())
	if err != nil {
		t.Fatal(err)
	}
	f0, err := f.Domain(0)
	if err != nil {
		t.Fatal(err)
	}
	f.AttachFaults(faults.NewInjector())
	if err := f.InjectEventFlood(fd, 3, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := f.InjectGrantStatusLeak(fd); err != nil {
		t.Fatal(err)
	}
	if err := guestRead(t, fd, fd.PhysmapVA(5)); err != nil {
		t.Fatal(err)
	}
	if err := f.InjectDomainPause(f0); err != nil {
		t.Fatal(err)
	}
	if err := f.InjectZombie(fd); err != nil {
		t.Fatal(err)
	}
	f.Crash("cell crash")

	ms.Reset(fm)
	hs.Reset(f)

	if f.cfg.flt != nil || f.cfg.tel != nil || f.cfg.spans != nil {
		t.Error("reset fork still holds a sink or fault plane")
	}
	if f.Crashed() || !reflect.DeepEqual(f.Console(), h.Console()) {
		t.Errorf("reset fork crashed=%v, console differs from the prototype's", f.Crashed())
	}
	if got, err := f.Domain(g.ID()); err != nil || got != fd {
		t.Fatalf("zombied domain not re-listed as the same shell object: %v, %v", got, err)
	}
	if got, err := f.Domain(0); err != nil || got != f0 || f0.paused {
		t.Fatalf("dom0 after reset: %v (paused %v), %v", got, f0.paused, err)
	}
	if fd.destroyed || fd.paused || fd.PendingEvents() != 0 {
		t.Errorf("guest after reset: destroyed %v paused %v pending %d", fd.destroyed, fd.paused, fd.PendingEvents())
	}
	if v, frames := fd.GrantTableVersion(), fd.GrantStatusFrames(); v != 1 || len(frames) != 0 {
		t.Errorf("grant table after reset: version %d, status frames %v", v, frames)
	}
	if fd.tlb.Len() != 0 || fd.TLBStats() != (pagetable.TLBStats{}) {
		t.Errorf("TLB after reset: %d entries, stats %+v", fd.tlb.Len(), fd.TLBStats())
	}
	if err := fd.Hypercall(HypercallConsoleIO, "hello"); err != nil {
		t.Errorf("core hypercall after reset: %v", err)
	}
}
