package faults

import (
	"errors"
	"testing"
	"time"
)

// fireProfile drives every instrumented site through its first 128 hits
// and records the hit index on which each armed rule fired (0 = never).
// Two injectors with the same profile behave identically in a cell.
func fireProfile(i *Injector) map[Site]int {
	out := make(map[Site]int)
	for _, s := range []Site{SiteAlloc, SiteHypercallPanic, SiteHang, SiteSinkWrite, SiteWedge} {
		for n := 1; n <= 128; n++ {
			if i.Hit(s) {
				out[s] = n
				break
			}
		}
	}
	return out
}

func TestArmFiresOnNthHitExactlyOnce(t *testing.T) {
	i := NewInjector().Arm(SiteAlloc, 3)
	for n := 1; n <= 10; n++ {
		fired := i.Hit(SiteAlloc)
		if fired != (n == 3) {
			t.Errorf("hit %d: fired = %v", n, fired)
		}
	}
	if got := i.Fired(); len(got) != 1 || got[0] != "mm.alloc@3" {
		t.Errorf("Fired() = %v, want [mm.alloc@3]", got)
	}
	if i.Hits(SiteAlloc) != 10 {
		t.Errorf("Hits = %d, want 10", i.Hits(SiteAlloc))
	}
}

func TestArmClampsAndRearms(t *testing.T) {
	i := NewInjector().Arm(SiteHang, 0) // n < 1 arms the first hit
	if !i.Hit(SiteHang) {
		t.Error("trigger 0 did not fire on the first hit")
	}
	i = NewInjector().Arm(SiteHang, 5).Arm(SiteHang, 2) // re-arm replaces
	if i.Hit(SiteHang) {
		t.Error("fired on hit 1 after re-arming to 2")
	}
	if !i.Hit(SiteHang) {
		t.Error("did not fire on hit 2 after re-arming")
	}
}

func TestNilInjectorIsTheDisabledPlane(t *testing.T) {
	var i *Injector
	if i.Hit(SiteAlloc) {
		t.Error("nil injector fired")
	}
	if i.Hits(SiteAlloc) != 0 || i.Fired() != nil || i.Armed() {
		t.Error("nil injector reports state")
	}
	i.Block()   // must return immediately
	i.Release() // must not panic
}

func TestReleaseUnblocksAndIsIdempotent(t *testing.T) {
	i := NewInjector()
	done := make(chan struct{})
	go func() {
		i.Block()
		close(done)
	}()
	i.Release()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Block did not return after Release")
	}
	i.Release() // second release is a no-op
	i.Block()   // post-release blocks return immediately
}

func TestErrorfWrapsErrInjected(t *testing.T) {
	err := NewInjector().Errorf(SiteSinkWrite, "write %d", 7)
	if !errors.Is(err, ErrInjected) {
		t.Errorf("%v does not wrap ErrInjected", err)
	}
}

func TestForCellIsDeterministicAcrossPlansAndOrder(t *testing.T) {
	cells := []string{
		"4.6/XSA-182-test/exploit",
		"4.8/XSA-148-priv/injection",
		"4.13/XSA-212-crash/exploit",
		"4.13/XSA-212-priv/injection",
	}
	a := NewPlan(42, 1)
	b := NewPlan(42, 1)
	// Derive in opposite orders: the profile must depend only on
	// (seed, cell), never on derivation order.
	want := make(map[string]map[Site]int)
	for _, c := range cells {
		want[c] = fireProfile(a.ForCell(c))
	}
	for k := len(cells) - 1; k >= 0; k-- {
		c := cells[k]
		got := fireProfile(b.ForCell(c))
		if len(got) != len(want[c]) {
			t.Fatalf("cell %s: profile %v != %v", c, got, want[c])
		}
		for s, n := range want[c] {
			if got[s] != n {
				t.Errorf("cell %s site %s: fired at %d vs %d", c, s, got[s], n)
			}
		}
	}
	// A fresh derivation for the same cell restarts trigger counts.
	c := cells[0]
	if again := fireProfile(a.ForCell(c)); len(again) != len(want[c]) {
		t.Errorf("re-derived cell %s: %v != %v", c, again, want[c])
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	cells := []string{"a/b/c", "d/e/f", "g/h/i", "j/k/l", "m/n/o", "p/q/r"}
	same := true
	for _, c := range cells {
		p1 := fireProfile(NewPlan(1, 1).ForCell(c))
		p2 := fireProfile(NewPlan(2, 1).ForCell(c))
		if len(p1) != len(p2) {
			same = false
			break
		}
		for s, n := range p1 {
			if p2[s] != n {
				same = false
			}
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical fault plans for every probe cell")
	}
}

func TestDensityGate(t *testing.T) {
	zero := NewPlan(7, 0)
	for _, c := range []string{"a/b/c", "d/e/f", "g/h/i"} {
		if zero.ForCell(c).Armed() {
			t.Errorf("density 0 armed cell %s", c)
		}
	}
	full := NewPlan(7, 1)
	armed := 0
	for _, c := range []string{"a/b/c", "d/e/f", "g/h/i", "j/k/l"} {
		if full.ForCell(c).Armed() {
			armed++
		}
	}
	if armed != 4 {
		t.Errorf("density 1 armed %d/4 cells", armed)
	}
	// Out-of-range densities clamp instead of misbehaving.
	if NewPlan(7, -3).ForCell("a/b/c").Armed() {
		t.Error("negative density armed a cell")
	}
	if !NewPlan(7, 9).ForCell("a/b/c").Armed() {
		t.Error("density > 1 did not clamp to 1")
	}
}

func TestSeededPlansNeverArmWedge(t *testing.T) {
	p := NewPlan(99, 1)
	for _, c := range []string{"a/b/c", "d/e/f", "g/h/i", "j/k/l", "m/n/o", "p/q/r", "s/t/u", "v/w/x"} {
		inj := p.ForCell(c)
		for n := 0; n < 1024; n++ {
			if inj.Hit(SiteWedge) {
				t.Fatalf("seeded plan armed SiteWedge for cell %s", c)
			}
		}
	}
}

func TestArmCellOverridesSeededDerivation(t *testing.T) {
	p := NewPlan(42, 1).ArmCell("a/b/c", SiteWedge, 2)
	inj := p.ForCell("a/b/c")
	profile := fireProfile(inj)
	if n := profile[SiteWedge]; n != 2 {
		t.Errorf("explicit wedge rule fired at %d, want 2", n)
	}
	for _, s := range []Site{SiteAlloc, SiteHypercallPanic, SiteHang, SiteSinkWrite} {
		if n, ok := profile[s]; ok {
			t.Errorf("seeded rule %s@%d survived an explicit override", s, n)
		}
	}
}

func TestNilPlanIsTheDisabledPlane(t *testing.T) {
	var p *Plan
	if inj := p.ForCell("a/b/c"); inj != nil {
		t.Error("nil plan derived an injector")
	}
	if p.Seed() != 0 {
		t.Error("nil plan has a seed")
	}
	p.ReleaseAll() // must not panic
}

func TestReleaseAllUnwedgesDerivedInjectors(t *testing.T) {
	p := NewPlan(0, 0).ArmCell("a/b/c", SiteWedge, 1)
	inj := p.ForCell("a/b/c")
	done := make(chan struct{})
	go func() {
		if inj.Hit(SiteWedge) {
			inj.Block()
		}
		close(done)
	}()
	p.ReleaseAll()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ReleaseAll did not unwedge a derived injector")
	}
}
