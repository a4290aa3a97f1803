package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is the cross-environment metrics aggregate: named atomic
// counters and histograms. Campaign workers merge their cells' profiles
// concurrently as cells complete; readers snapshot after the campaign.
type Registry struct {
	counters   sync.Map // string -> *Counter
	histograms sync.Map // string -> *Histogram

	// profiles retains every recorded cell profile in completion order,
	// so a campaign that dies or is cancelled mid-run can still flush a
	// trace of the cells that finished. Completion order is not cell
	// order; readers that need determinism must sort.
	profMu   sync.Mutex
	profiles []*CellProfile
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current reading.
func (c *Counter) Value() uint64 { return c.v.Load() }

// histogramBuckets is one bucket per power of two: bucket i counts
// observations v with bits.Len64(v) == i, i.e. [2^(i-1), 2^i).
const histogramBuckets = 65

// Histogram is an atomic power-of-two-bucket histogram, sized for
// nanosecond durations (bucket index = bit length of the observation).
type Histogram struct {
	buckets [histogramBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	min     atomic.Uint64
	max     atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for cur := h.min.Load(); v < cur; cur = h.min.Load() {
		if h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for cur := h.max.Load(); v > cur; cur = h.max.Load() {
		if h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// HistogramSnapshot is a consistent-enough read of a histogram for
// post-campaign reporting.
type HistogramSnapshot struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Min   uint64 `json:"min,omitempty"`
	Max   uint64 `json:"max,omitempty"`
	// Buckets maps the upper bound (2^i) of each nonempty bucket to its
	// observation count, in ascending bound order.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// HistogramBucket is one nonempty power-of-two bucket.
type HistogramBucket struct {
	UpperBound uint64 `json:"le"`
	Count      uint64 `json:"count"`
}

// Mean returns the average observation, 0 with no observations.
func (s HistogramSnapshot) Mean() uint64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}

// Quantile estimates the q-th quantile (0 < q < 1) from the
// power-of-two buckets: it finds the bucket holding the rank-q
// observation and interpolates linearly inside the bucket's
// [bound/2, bound) range, clamped to the observed [Min, Max]. With no
// observations it returns 0; q <= 0 returns Min and q >= 1 returns Max.
// The estimate is exact to within one power-of-two bucket, which is
// what a wall-time p50/p99 needs for regression tracking.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		if cum+b.Count < rank {
			cum += b.Count
			continue
		}
		lo, hi := bucketRange(b.UpperBound)
		// Interpolate the in-bucket position of the rank-q observation.
		frac := (float64(rank-cum) - 0.5) / float64(b.Count)
		v := lo + uint64(frac*float64(hi-lo))
		if v < s.Min {
			v = s.Min
		}
		if v > s.Max {
			v = s.Max
		}
		return v
	}
	return s.Max
}

// bucketRange returns the half-open observation range [lo, hi) of the
// bucket with the given upper bound.
func bucketRange(bound uint64) (lo, hi uint64) {
	switch {
	case bound == 0:
		return 0, 1
	case bound == ^uint64(0): // the saturated 2^64 bucket
		return 1 << 63, ^uint64(0)
	default:
		return bound / 2, bound
	}
}

// Counter returns the named counter, creating it on first use.
func (g *Registry) Counter(name string) *Counter {
	if c, ok := g.counters.Load(name); ok {
		return c.(*Counter)
	}
	c, _ := g.counters.LoadOrStore(name, &Counter{})
	return c.(*Counter)
}

// Histogram returns the named histogram, creating it on first use.
func (g *Registry) Histogram(name string) *Histogram {
	if h, ok := g.histograms.Load(name); ok {
		return h.(*Histogram)
	}
	fresh := &Histogram{}
	fresh.min.Store(^uint64(0)) // so the first Observe establishes the minimum
	h, _ := g.histograms.LoadOrStore(name, fresh)
	return h.(*Histogram)
}

// CellWallHistogram is the registry histogram that Record feeds with
// per-cell wall times.
const CellWallHistogram = "cell.wall_ns"

// Record merges one cell profile into the aggregate: every cell counter
// is added to the registry counter of the same name, and the cell's
// wall time is observed into the CellWallHistogram. Safe to call from
// concurrent campaign workers.
func (g *Registry) Record(p *CellProfile) {
	if g == nil || p == nil {
		return
	}
	for _, cv := range p.Counters {
		g.Counter(cv.Name).Add(cv.Value)
	}
	g.Histogram(CellWallHistogram).Observe(uint64(p.WallNS))
	g.profMu.Lock()
	g.profiles = append(g.profiles, p)
	g.profMu.Unlock()
}

// CellProfiles returns the recorded profiles in completion order. It is
// the salvage path for interrupted campaigns: the runner's cell-ordered
// result set never materialized, but every completed cell's profile is
// still here.
func (g *Registry) CellProfiles() []*CellProfile {
	if g == nil {
		return nil
	}
	g.profMu.Lock()
	defer g.profMu.Unlock()
	out := make([]*CellProfile, len(g.profiles))
	copy(out, g.profiles)
	return out
}

// Snapshot returns all counter readings sorted by name. Aggregated
// counter values are order-independent sums, so a snapshot taken after
// a campaign is deterministic at any worker count.
func (g *Registry) Snapshot() []CounterValue {
	if g == nil {
		return nil
	}
	var out []CounterValue
	g.counters.Range(func(k, v any) bool {
		out = append(out, CounterValue{Name: k.(string), Value: v.(*Counter).Value()})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Histograms returns snapshots of all histograms sorted by name, with
// only nonempty buckets materialized.
func (g *Registry) Histograms() []HistogramSnapshot {
	if g == nil {
		return nil
	}
	var out []HistogramSnapshot
	g.histograms.Range(func(k, v any) bool {
		h := v.(*Histogram)
		s := HistogramSnapshot{
			Name:  k.(string),
			Count: h.count.Load(),
			Sum:   h.sum.Load(),
			Max:   h.max.Load(),
		}
		if s.Count > 0 {
			s.Min = h.min.Load()
		}
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n > 0 {
				var bound uint64
				switch {
				case i == 0:
					bound = 0
				case i >= 64:
					bound = ^uint64(0) // 2^64 saturates the uint64 bound
				default:
					bound = uint64(1) << i
				}
				s.Buckets = append(s.Buckets, HistogramBucket{UpperBound: bound, Count: n})
			}
		}
		out = append(out, s)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
