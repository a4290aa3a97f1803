package pagetable

import "repro/internal/mm"

// TLBEntry caches one page translation with the effective permissions
// computed at fill time — including the walk policy's verdict, the way a
// hardware TLB caches the access rights it validated when the entry was
// loaded. This is what makes stale TLB state an erroneous state in its
// own right: a raw page-table write that bypasses the flush protocol
// leaves translations (and rights) in the TLB that the tables no longer
// grant.
type TLBEntry struct {
	// Frame is the cached target machine frame.
	Frame mm.MFN
	// Writable is the effective write permission (flags and policy).
	Writable bool
	// User is the accumulated user-accessibility.
	User bool
	// NoExec is the accumulated no-execute bit.
	NoExec bool
}

// TLBStats counts cache behaviour for the ablation benchmarks.
type TLBStats struct {
	Hits, Misses, Flushes uint64
}

// TLB is a per-vCPU translation cache with FIFO replacement. A capacity
// of zero disables caching entirely.
type TLB struct {
	capacity int
	entries  map[uint64]TLBEntry
	order    []uint64
	stats    TLBStats
}

// NewTLB creates a cache holding up to capacity page translations. The
// backing storage is allocated lazily on the first Insert and grows
// with the entries actually cached, so the many short-lived vCPUs a
// snapshot-forking campaign stamps out pay only for what they
// translate.
func NewTLB(capacity int) *TLB {
	return &TLB{capacity: capacity}
}

// Enabled reports whether the cache holds anything at all.
func (t *TLB) Enabled() bool { return t.capacity > 0 }

// Stats returns the counters.
func (t *TLB) Stats() TLBStats { return t.stats }

// Len returns the number of cached translations.
func (t *TLB) Len() int { return len(t.entries) }

func pageOf(va uint64) uint64 { return va &^ uint64(mm.PageMask) }

// Lookup returns the cached entry for the page of va.
func (t *TLB) Lookup(va uint64) (TLBEntry, bool) {
	if !t.Enabled() {
		return TLBEntry{}, false
	}
	e, ok := t.entries[pageOf(va)]
	if ok {
		t.stats.Hits++
	} else {
		t.stats.Misses++
	}
	return e, ok
}

// Insert caches a translation for the page of va, evicting the oldest
// entry when full.
func (t *TLB) Insert(va uint64, e TLBEntry) {
	if !t.Enabled() {
		return
	}
	if t.entries == nil {
		t.entries = make(map[uint64]TLBEntry)
	}
	page := pageOf(va)
	if _, exists := t.entries[page]; !exists {
		if len(t.order) >= t.capacity {
			oldest := t.order[0]
			t.order = t.order[1:]
			delete(t.entries, oldest)
		}
		t.order = append(t.order, page)
	}
	t.entries[page] = e
}

// Flush drops every cached translation (the full flush Xen performs
// after validated page-table updates).
func (t *TLB) Flush() {
	if !t.Enabled() || len(t.entries) == 0 {
		t.stats.Flushes++
		return
	}
	clear(t.entries)
	t.order = t.order[:0]
	t.stats.Flushes++
}

// Reset empties the cache and zeroes its counters, as a new TLB of the
// same capacity starts, but keeps the storage it grew for reuse.
func (t *TLB) Reset() {
	clear(t.entries)
	t.order = t.order[:0]
	t.stats = TLBStats{}
}

// FlushVA drops the translation of one page (invlpg).
func (t *TLB) FlushVA(va uint64) {
	if !t.Enabled() {
		return
	}
	page := pageOf(va)
	if _, ok := t.entries[page]; !ok {
		return
	}
	delete(t.entries, page)
	for i, p := range t.order {
		if p == page {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}
