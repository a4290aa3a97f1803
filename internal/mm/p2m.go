package mm

import "fmt"

// P2M is one domain's pseudo-physical to machine translation table. In a
// paravirtualized system the guest sees a (possibly sparse) space of PFNs
// which the hypervisor maps to machine frames; the inverse direction is
// kept in the machine-wide M2P table so that the hypervisor can audit any
// frame's provenance.
//
// The table is sparse (a map) because hypercalls such as
// XENMEM_populate_physmap and XENMEM_decrease_reservation let a guest
// punch holes in — and extend — its pseudo-physical space at arbitrary
// PFNs.
type P2M struct {
	dom     DomID
	mem     *Memory
	entries map[PFN]MFN
	maxPFN  PFN
	// shared marks the entries map as belonging to a sealed snapshot;
	// the first mutation clones it (see own).
	shared bool
	// sealed is, on a fork, the snapshot's table the fork resets to;
	// kept is the clone an earlier cell made, which Reset keeps for the
	// next clone to reuse.
	sealed *P2M
	kept   map[PFN]MFN
}

// NewP2M creates an empty translation table for the domain.
func (m *Memory) NewP2M(dom DomID) *P2M {
	return &P2M{dom: dom, mem: m, entries: make(map[PFN]MFN)}
}

// ForkOnto creates a copy-on-write view of the table bound to a forked
// machine. The entries map is shared with the sealed original until the
// fork's first Set or Clear clones it.
func (p *P2M) ForkOnto(mem *Memory) *P2M {
	return &P2M{dom: p.dom, mem: mem, entries: p.entries, maxPFN: p.maxPFN, shared: true, sealed: p}
}

// Reset returns a fork to its sealed table in place: the entries map is
// shared again, and a clone the fork made is kept for its next first
// mutation, which clears and refills it instead of allocating. Call it
// only on a table ForkOnto made.
func (p *P2M) Reset() {
	if !p.shared {
		p.kept = p.entries
	}
	p.entries, p.maxPFN, p.shared = p.sealed.entries, p.sealed.maxPFN, true
}

// own clones the shared entries map before the first mutation, into
// the map a Reset kept when there is one.
func (p *P2M) own() {
	if !p.shared {
		return
	}
	clone := p.kept
	if clone == nil {
		clone = make(map[PFN]MFN, len(p.entries))
	} else {
		clear(clone)
	}
	for k, v := range p.entries {
		clone[k] = v
	}
	p.entries, p.kept, p.shared = clone, nil, false
}

// Domain returns the domain this table belongs to.
func (p *P2M) Domain() DomID { return p.dom }

// Len returns the number of populated translations.
func (p *P2M) Len() int { return len(p.entries) }

// MaxPFN returns the highest PFN ever populated, defining the extent of
// the guest's pseudo-physical space.
func (p *P2M) MaxPFN() PFN { return p.maxPFN }

// Set installs pfn -> mfn and the inverse M2P entry. The frame must be
// owned by this domain: the hypervisor never lets a P2M point at foreign
// memory through legitimate interfaces.
func (p *P2M) Set(pfn PFN, mfn MFN) error {
	pi, err := p.mem.Info(mfn)
	if err != nil {
		return err
	}
	if pi.Owner != p.dom {
		return fmt.Errorf("%w: p2m of dom%d cannot map mfn %#x owned by dom%d",
			ErrNotOwner, p.dom, uint64(mfn), pi.Owner)
	}
	p.own()
	if old, ok := p.entries[pfn]; ok {
		*p.mem.m2pRef(old) = m2pEntry{}
	}
	p.entries[pfn] = mfn
	*p.mem.m2pRef(mfn) = m2pEntry{dom: p.dom, pfn: pfn, valid: true}
	if pfn > p.maxPFN {
		p.maxPFN = pfn
	}
	return nil
}

// Clear removes the translation for pfn, returning the machine frame that
// was mapped there. The frame itself is not freed; decrease_reservation
// and memory_exchange decide its fate.
func (p *P2M) Clear(pfn PFN) (MFN, error) {
	mfn, ok := p.entries[pfn]
	if !ok {
		return 0, fmt.Errorf("%w: dom%d pfn %#x", ErrNoMapping, p.dom, uint64(pfn))
	}
	p.own()
	delete(p.entries, pfn)
	*p.mem.m2pRef(mfn) = m2pEntry{}
	return mfn, nil
}

// Lookup translates a guest PFN to its machine frame.
func (p *P2M) Lookup(pfn PFN) (MFN, error) {
	mfn, ok := p.entries[pfn]
	if !ok {
		return 0, fmt.Errorf("%w: dom%d pfn %#x", ErrNoMapping, p.dom, uint64(pfn))
	}
	return mfn, nil
}

// Contains reports whether the PFN is populated.
func (p *P2M) Contains(pfn PFN) bool {
	_, ok := p.entries[pfn]
	return ok
}

// PFNs returns all populated PFNs in unspecified order.
func (p *P2M) PFNs() []PFN {
	out := make([]PFN, 0, len(p.entries))
	for pfn := range p.entries {
		out = append(out, pfn)
	}
	return out
}

// M2P performs the machine-to-pseudo-physical lookup for a frame,
// returning the owning domain and the PFN at which that domain sees it.
func (m *Memory) M2P(mfn MFN) (DomID, PFN, error) {
	if !m.ValidMFN(mfn) {
		return 0, 0, fmt.Errorf("%w: mfn %#x", ErrBadMFN, uint64(mfn))
	}
	e := m.m2pAt(mfn)
	if !e.valid {
		return 0, 0, fmt.Errorf("%w: mfn %#x has no m2p entry", ErrNoMapping, uint64(mfn))
	}
	return e.dom, e.pfn, nil
}
