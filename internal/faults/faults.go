// Package faults is the deterministic fault-injection plane for the
// simulator substrate: the injector's philosophy turned inward. Where
// the paper's intrusion injector drives representative erroneous states
// into the guest-visible system, this package drives representative
// *infrastructure* faults into our own substrate — forced allocation
// failures in mm, hypercall-handler panics and forced hang states in
// hv, telemetry-sink write errors — so the campaign engine's tolerance
// of a misbehaving cell can be exercised reproducibly, the way IRIS
// seeds its virtualization-fuzzing runs for replay.
//
// Two kinds of state, mirroring the telemetry layer's split:
//
//   - Injector — per-environment, single-goroutine (one campaign cell
//     owns one Injector, like one cell owns one telemetry.Recorder): a
//     set of armed rules keyed by site + trigger count. A nil *Injector
//     is the disabled plane; every method is nil-safe and instrumented
//     hot paths cost one predicted branch when fault injection is off.
//   - Plan — campaign-wide and seed-keyed: a pure function from cell
//     identity to an armed Injector, so the same seed faults the same
//     cells in the same way at any worker count or run order.
//
// The plane starts at the fork point. The campaign attaches a cell's
// Injector only once the cell's environment exists, forked from the
// sealed boot or booted fresh, so a trigger counts the cell's own
// consults and never a boot's: the nth hit is the nth time the cell's
// scenario or its assessment passes the site, on either boot path.
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
)

// Site identifies one instrumented injection point in the substrate.
// The constants below are the sites the substrate packages consult; the
// type is open so tests can arm private sites of their own.
type Site string

// Instrumented substrate sites.
const (
	// SiteAlloc forces a machine-frame allocation failure in
	// mm.Alloc/mm.AllocRange (ErrOutOfMemory wrapping ErrInjected).
	SiteAlloc Site = "mm.alloc"
	// SiteHypercallPanic panics inside the hypercall dispatcher before
	// the handler runs, modeling a handler bug taking the worker down.
	SiteHypercallPanic Site = "hv.hypercall.panic"
	// SiteHang forces the hypervisor into its hang state at hypercall
	// dispatch, the cooperative "stopped making progress" failure the
	// monitor classifies.
	SiteHang Site = "hv.hang"
	// SiteWedge parks the dispatching goroutine until Release — a true
	// runaway cell, food for the campaign runner's watchdog. Never armed
	// by seeded plans; tests arm it explicitly and must Release.
	SiteWedge Site = "hv.wedge"
	// SiteSinkWrite fails a telemetry-sink event write: the recorder
	// drops the event and counts telemetry.sink_errors.
	SiteSinkWrite Site = "telemetry.sink"
)

// ErrInjected marks every error manufactured by this package, so
// campaign-level classification can tell an injected substrate fault
// from an organic failure with errors.Is.
var ErrInjected = errors.New("faults: injected fault")

// Injector is one environment's armed fault set. It is intentionally
// not safe for concurrent use — one campaign cell is one goroutine —
// except for Release, which the watchdog's owner may call from outside.
// The nil Injector is the disabled plane: Hit always reports false.
type Injector struct {
	trigger map[Site]uint64
	hits    map[Site]uint64
	fired   []string
	release chan struct{}
	once    sync.Once
}

// NewInjector creates an injector with no armed rules.
func NewInjector() *Injector {
	return &Injector{
		trigger: make(map[Site]uint64),
		hits:    make(map[Site]uint64),
		release: make(chan struct{}),
	}
}

// Arm schedules the site to fire on its nth hit (1-based; n < 1 arms
// the first hit). Re-arming a site replaces its trigger. Returns the
// injector for chaining.
func (i *Injector) Arm(site Site, nth uint64) *Injector {
	if nth < 1 {
		nth = 1
	}
	i.trigger[site] = nth
	return i
}

// Hit records one pass through the site and reports whether the armed
// fault fires on this pass. Sites with no armed rule never fire.
func (i *Injector) Hit(site Site) bool {
	if i == nil {
		return false
	}
	i.hits[site]++
	if nth, ok := i.trigger[site]; ok && nth == i.hits[site] {
		i.fired = append(i.fired, fmt.Sprintf("%s@%d", site, nth))
		return true
	}
	return false
}

// Errorf manufactures a site's injected error, wrapping ErrInjected.
func (i *Injector) Errorf(site Site, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrInjected, site, fmt.Sprintf(format, args...))
}

// Block parks the calling goroutine until Release: the body of a wedge
// fault, a cell that will never return on its own.
func (i *Injector) Block() {
	if i == nil {
		return
	}
	<-i.release
}

// Release unwedges every past and future Block call. Safe to call more
// than once and from any goroutine.
func (i *Injector) Release() {
	if i == nil {
		return
	}
	i.once.Do(func() { close(i.release) })
}

// Fired returns the rules that fired, in firing order, as "site@n"
// strings. Read it only after the owning cell has finished.
func (i *Injector) Fired() []string {
	if i == nil {
		return nil
	}
	out := make([]string, len(i.fired))
	copy(out, i.fired)
	return out
}

// Hits returns how many times the site has been passed (0 for nil).
func (i *Injector) Hits(site Site) uint64 {
	if i == nil {
		return 0
	}
	return i.hits[site]
}

// Armed reports whether any rule is armed (false for nil).
func (i *Injector) Armed() bool { return i != nil && len(i.trigger) > 0 }

// DefaultDensity is the fraction of cells a seeded plan faults.
const DefaultDensity = 0.5

// seededSites are the sites a seeded plan draws from. SiteWedge is
// deliberately absent: wedges require a watchdog timeout to resolve and
// an explicit Release to unpark, so only targeted rules arm them.
var seededSites = []Site{SiteAlloc, SiteHypercallPanic, SiteHang, SiteSinkWrite}

// seededTriggerBound caps a seeded rule's trigger count per site, and
// a seeded rule fires on a hit drawn uniformly from 1 to the bound.
// Every bound follows one rule: it is the median count of the site's
// consults after the fork point, over the default matrix cells that
// pass the site at least once. Measured with an unarmed injector and a
// recorder on every cell: 33 of the 102 cells allocate after the fork
// (1 to 8 times, median 2); all 102 dispatch hypercalls (1 to 515,
// median 2), each dispatch consulting the panic and the hang site once;
// and all 102 emit events (8 to 1035, median 11). A seeded rule thus
// fires in at least half of the cells that reach its site and stays
// dormant in the others; both outcomes are valid chaos, and both are
// deterministic per cell.
var seededTriggerBound = map[Site]uint64{
	SiteAlloc:          2,
	SiteHypercallPanic: 2,
	SiteHang:           2,
	SiteSinkWrite:      11,
}

// Plan is a campaign-wide, seed-keyed fault plan: a deterministic
// function from cell identity to a freshly armed Injector. Derivation
// hashes only (seed, cell string), never run order, so identical seeds
// produce identical per-cell faults at any worker count. Explicit
// per-cell rules (ArmCell) override the seeded derivation for targeted
// tests. ForCell and ReleaseAll are safe for concurrent use.
type Plan struct {
	seed    int64
	density float64

	mu       sync.Mutex
	explicit map[string][]rule
	armed    []*Injector
}

type rule struct {
	site Site
	nth  uint64
}

// NewPlan creates a plan keyed by seed. density is the fraction of
// cells that receive seeded faults, clamped to [0, 1]; zero gives a
// plan that faults nothing until ArmCell adds explicit rules.
func NewPlan(seed int64, density float64) *Plan {
	if density < 0 {
		density = 0
	}
	if density > 1 {
		density = 1
	}
	return &Plan{seed: seed, density: density, explicit: make(map[string][]rule)}
}

// Seed returns the plan's seed, for artifact labeling.
func (p *Plan) Seed() int64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// ArmCell pins an explicit rule for one cell identity. Explicit rules
// replace the cell's seeded derivation entirely.
func (p *Plan) ArmCell(cell string, site Site, nth uint64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.explicit[cell] = append(p.explicit[cell], rule{site: site, nth: nth})
	return p
}

// ForCell derives the cell's injector: explicit rules if any were
// pinned, otherwise the seeded derivation. Every call returns a fresh
// injector (a cell coordinate re-run — e.g. by the matrix and then the
// security benchmark — restarts its trigger counts), and the plan
// retains it so ReleaseAll can unwedge strays.
func (p *Plan) ForCell(cell string) *Injector {
	if p == nil {
		return nil
	}
	inj := NewInjector()
	p.mu.Lock()
	explicit, pinned := p.explicit[cell]
	p.armed = append(p.armed, inj)
	p.mu.Unlock()
	if pinned {
		for _, r := range explicit {
			inj.Arm(r.site, r.nth)
		}
		return inj
	}
	h := fnv.New64a()
	h.Write([]byte(cell))
	rng := rand.New(rand.NewSource(p.seed ^ int64(h.Sum64())))
	if rng.Float64() >= p.density {
		return inj
	}
	for k, n := 0, 1+rng.Intn(2); k < n; k++ {
		site := seededSites[rng.Intn(len(seededSites))]
		inj.Arm(site, 1+uint64(rng.Int63n(int64(seededTriggerBound[site]))))
	}
	return inj
}

// ReleaseAll unwedges every injector the plan has handed out. Call it
// after a campaign so watchdog-abandoned cells can terminate and their
// goroutines drain.
func (p *Plan) ReleaseAll() {
	if p == nil {
		return
	}
	p.mu.Lock()
	armed := p.armed
	p.armed = nil
	p.mu.Unlock()
	for _, inj := range armed {
		inj.Release()
	}
}
