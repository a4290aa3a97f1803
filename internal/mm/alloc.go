package mm

import (
	"fmt"
	"math/bits"

	"repro/internal/faults"
)

// allocFault consults the fault plane before an allocation. When the
// armed SiteAlloc rule fires, the allocator reports ErrOutOfMemory as
// if the machine were exhausted, wrapped in faults.ErrInjected so
// callers can tell a forced failure from a real one.
func (m *Memory) allocFault() error {
	if m.flt.Hit(faults.SiteAlloc) {
		return fmt.Errorf("%w: %w (forced allocation failure)", ErrOutOfMemory, faults.ErrInjected)
	}
	return nil
}

// setFree marks a frame free in the indexed free-set.
func (m *Memory) setFree(mfn MFN) {
	w, b := int(mfn)>>6, uint(mfn)&63
	m.freeWords[w] |= 1 << b
	m.freeSummary[w>>6] |= 1 << (uint(w) & 63)
	m.freeCount++
}

// clearFree removes a frame from the free-set. The caller must know the
// frame is currently free.
func (m *Memory) clearFree(mfn MFN) {
	w, b := int(mfn)>>6, uint(mfn)&63
	m.freeWords[w] &^= 1 << b
	if m.freeWords[w] == 0 {
		m.freeSummary[w>>6] &^= 1 << (uint(w) & 63)
	}
	m.freeCount--
}

// isFree reports whether a valid frame is in the free-set.
func (m *Memory) isFree(mfn MFN) bool {
	return m.freeWords[int(mfn)>>6]>>(uint(mfn)&63)&1 == 1
}

// lowestFree returns the lowest-numbered free frame. The summary level
// narrows the search to one word per 4096 frames, then two trailing-zero
// counts finish the job.
func (m *Memory) lowestFree() (MFN, bool) {
	for s, sum := range m.freeSummary {
		if sum == 0 {
			continue
		}
		w := s<<6 + bits.TrailingZeros64(sum)
		return MFN(w<<6 + bits.TrailingZeros64(m.freeWords[w])), true
	}
	return 0, false
}

// Alloc takes the lowest-numbered free frame, assigns it to the owner and
// zeroes its contents. Deterministic lowest-first allocation keeps
// experiment runs reproducible and lets exploits perform the allocator
// grooming that real attacks rely on.
func (m *Memory) Alloc(owner DomID) (MFN, error) {
	if err := m.allocFault(); err != nil {
		return 0, err
	}
	mfn, ok := m.lowestFree()
	if !ok {
		return 0, ErrOutOfMemory
	}
	m.clearFree(mfn)
	m.claim(mfn, owner)
	return mfn, nil
}

// AllocAt takes a specific free frame, for allocator grooming and for the
// domain builder, which lays frames out at fixed machine addresses.
func (m *Memory) AllocAt(mfn MFN, owner DomID) error {
	if !m.ValidMFN(mfn) {
		return fmt.Errorf("%w: mfn %#x", ErrBadMFN, uint64(mfn))
	}
	if !m.isFree(mfn) {
		return fmt.Errorf("mm: frame %#x is not free", uint64(mfn))
	}
	m.clearFree(mfn)
	m.claim(mfn, owner)
	return nil
}

// AllocRange allocates n consecutive free frames and returns the first.
// Used by the domain builder to give each domain a contiguous machine
// region, which keeps the physical-memory scans of the XSA-148 exploit
// realistic. The search walks the free-set word by word, skipping fully
// allocated 64-frame blocks, and claims the lowest run found.
func (m *Memory) AllocRange(n int, owner DomID) (MFN, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mm: AllocRange needs a positive count, got %d", n)
	}
	name := fmt.Sprintf("alloc_range[%d]", n)
	sp := m.spans.MMOp(name)
	if m.jrn != nil {
		m.jrn.record(jSpanStart, 0, name)
	}
	defer func() {
		if m.jrn != nil {
			m.jrn.record(jSpanEnd, 0, "")
		}
		m.spans.End(sp)
	}()
	if err := m.allocFault(); err != nil {
		return 0, err
	}
	run := 0
	for f := 0; f < len(m.frames); f++ {
		w, b := f>>6, uint(f)&63
		if b == 0 {
			// Word-granular fast paths: skip empty words, swallow
			// fully free ones.
			if word := m.freeWords[w]; word == 0 {
				run = 0
				f += 63
				continue
			} else if word == ^uint64(0) && f+64 <= len(m.frames) {
				run += 64
				f += 63
				if run >= n {
					return m.claimRange(MFN(f+1-run), n, owner)
				}
				continue
			}
		}
		if m.freeWords[w]>>b&1 == 1 {
			run++
			if run == n {
				return m.claimRange(MFN(f+1-n), n, owner)
			}
		} else {
			run = 0
		}
	}
	return 0, fmt.Errorf("%w: no run of %d consecutive free frames", ErrOutOfMemory, n)
}

// claimRange allocates the already-verified free frames [start, start+n).
func (m *Memory) claimRange(start MFN, n int, owner DomID) (MFN, error) {
	for i := 0; i < n; i++ {
		m.clearFree(start + MFN(i))
		m.claim(start+MFN(i), owner)
	}
	return start, nil
}

func (m *Memory) claim(mfn MFN, owner DomID) {
	if m.snap != nil {
		m.ownInfoChunk(mfn)
	}
	m.pageInfo[mfn] = PageInfo{Owner: owner, Type: TypeNone}
	if m.frames[mfn] != nil {
		clear(m.frames[mfn])
	} else if m.snap != nil && m.snap.frames[mfn] != nil {
		// The sealed image has content here; a freshly claimed frame
		// must read as zeros, so materialize a private zero page that
		// shadows it.
		m.frames[mfn] = make([]byte, PageSize)
		m.dirtyFrames = append(m.dirtyFrames, mfn)
	}
	*m.m2pRef(mfn) = m2pEntry{}
	m.allocated++
	m.tel.Inc("frames.alloc")
	if m.jrn != nil {
		m.jrn.record(jCounter, 0, "frames.alloc")
	}
}

// Free returns a frame to the allocator. The frame must have no
// outstanding references or type uses; the hypervisor's put paths must
// drive the counts to zero first. This check is the backstop that the
// "Keep Page Access" class of erroneous states (XSA-387/393 style)
// subverts by leaking a reference before the free.
func (m *Memory) Free(mfn MFN) error {
	pi, err := m.Info(mfn)
	if err != nil {
		return err
	}
	if pi.Owner == DomInvalid {
		return fmt.Errorf("mm: double free of frame %#x", uint64(mfn))
	}
	if pi.RefCount != 0 || pi.TypeCount != 0 {
		return fmt.Errorf("%w: mfn %#x ref=%d typecount=%d", ErrFrameBusy, uint64(mfn), pi.RefCount, pi.TypeCount)
	}
	*pi = PageInfo{Owner: DomInvalid, Type: TypeNone}
	*m.m2pRef(mfn) = m2pEntry{}
	m.setFree(mfn)
	m.allocated--
	m.tel.Inc("frames.free")
	if m.jrn != nil {
		m.jrn.record(jCounter, 0, "frames.free")
	}
	return nil
}

// GetRef takes a general reference on the frame on behalf of the domain.
// Foreign frames may not be referenced, which is exactly the isolation
// property intrusions break.
func (m *Memory) GetRef(mfn MFN, dom DomID) error {
	pi, err := m.Info(mfn)
	if err != nil {
		return err
	}
	if pi.Owner != dom {
		return fmt.Errorf("%w: mfn %#x owned by dom%d, caller dom%d", ErrNotOwner, uint64(mfn), pi.Owner, dom)
	}
	pi.RefCount++
	return nil
}

// PutRef drops a general reference.
func (m *Memory) PutRef(mfn MFN) error {
	pi, err := m.Info(mfn)
	if err != nil {
		return err
	}
	if pi.RefCount == 0 {
		return fmt.Errorf("mm: reference underflow on frame %#x", uint64(mfn))
	}
	pi.RefCount--
	return nil
}

// GetType validates the frame for use as the given type and takes a type
// reference. A frame whose TypeCount is zero may change type; otherwise
// the requested type must match the current one. This is the skeleton of
// Xen's get_page_type; the per-level entry validation that must run when
// a frame is first promoted to a page-table type lives in the hypervisor,
// which calls this after its checks pass.
func (m *Memory) GetType(mfn MFN, t FrameType) error {
	pi, err := m.Info(mfn)
	if err != nil {
		return err
	}
	if t == TypeNone {
		return fmt.Errorf("mm: cannot take a reference of type none on frame %#x", uint64(mfn))
	}
	if pi.TypeCount == 0 {
		pi.Type = t
		pi.TypeCount = 1
	} else if pi.Type != t {
		return fmt.Errorf("%w: mfn %#x is %s (count %d), wanted %s",
			ErrTypeConflict, uint64(mfn), pi.Type, pi.TypeCount, t)
	} else {
		pi.TypeCount++
	}
	m.tel.PageTypeGet(uint64(mfn), t.String())
	if m.jrn != nil {
		m.jrn.record(jTypeGet, uint64(mfn), t.String())
	}
	return nil
}

// PutType drops a type reference. When the count reaches zero the frame
// reverts to type none and may be revalidated as something else.
func (m *Memory) PutType(mfn MFN) error {
	pi, err := m.Info(mfn)
	if err != nil {
		return err
	}
	if pi.TypeCount == 0 {
		return fmt.Errorf("mm: type-reference underflow on frame %#x", uint64(mfn))
	}
	pi.TypeCount--
	m.tel.PageTypePut(uint64(mfn), pi.Type.String())
	if m.jrn != nil {
		m.jrn.record(jTypePut, uint64(mfn), pi.Type.String())
	}
	if pi.TypeCount == 0 && !pi.Pinned {
		pi.Type = TypeNone
	}
	return nil
}
