package mm

// Snapshot/COW machinery: a booted Memory can be sealed into an
// immutable Snapshot, and cheap copy-on-write forks stamped out from
// it. The campaign engine boots each (version, mode) environment once,
// seals the machine, and forks it per cell instead of re-booting —
// the record-and-restore reset that replay-driven fuzzing frameworks
// (IRIS, NecoFuzz) treat as the enabler for high iteration counts.
//
// Three structures clone lazily, at different granularities:
//
//   - Frame contents: per frame. A fork reads frames straight out of
//     the snapshot (or the shared zero frame) and materializes a
//     private copy only on first write.
//   - The frame table (pageInfo) and the M2P: per 64-entry chunk,
//     tracked in one ownership bit each. Info returns a mutable
//     pointer, so a fork takes ownership of a chunk on first access.
//   - P2M entries and guest page-table maps clone on first write in
//     their own packages (see P2M.ForkOnto, hv.Domain).
//
// The free-set bitmaps (a few hundred bytes) are copied eagerly: the
// allocator mutates them on almost every operation, so COW would only
// add branches.
//
// Reset returns a fork to the sealed state in place, so one fork can
// serve cell after cell. It keeps what the fork allocated: the
// ownership bitmaps, the private frame-table and M2P arrays, and the
// frame buffers the last cell materialized, which the next first
// writes reuse before allocating. It resets what the cell changed:
// every ownership bit (so all chunks read through the snapshot again),
// every materialized frame (its buffer goes to the kept list and the
// frame reads sealed content or zeros again), the free set and the
// counts, and the telemetry, fault and span sinks. A kept buffer is
// overwritten in full before it backs a frame again: the sealed
// content is copied in, or the buffer is cleared.
//
// A Snapshot is machine state only. What the boot put into telemetry,
// coverage and span sinks belongs to whoever attached them; the
// campaign keeps it beside the snapshot and restores it into each
// cell's sinks.
//
// Forks from the same Snapshot may run on concurrent goroutines: the
// sealed state is never written again (every write path materializes
// private storage first), so shared reads are race-free. A fork and
// its kept buffers belong to one goroutine at a time.

// Chunk geometry for the lazily cloned frame-table and M2P arrays.
const (
	chunkShift = 6
	chunkSize  = 1 << chunkShift
)

// zeroFrame backs reads of never-written frames in forks and fresh
// machines alike. It must never be written; every write path
// materializes private storage first.
var zeroFrame = new([PageSize]byte)

// Snapshot is a sealed, immutable image of a booted machine.
type Snapshot struct {
	frames      []*[PageSize]byte
	pageInfo    []PageInfo
	m2p         []m2pEntry
	freeWords   []uint64
	freeSummary []uint64
	freeCount   int
	allocated   int
}

// Seal captures the machine as an immutable snapshot. The Memory must
// not be used afterward: its backing arrays become the snapshot's
// shared state, read concurrently by every fork.
func (m *Memory) Seal() *Snapshot {
	return &Snapshot{
		frames:      m.frames,
		pageInfo:    m.pageInfo,
		m2p:         m.m2p,
		freeWords:   m.freeWords,
		freeSummary: m.freeSummary,
		freeCount:   m.freeCount,
		allocated:   m.allocated,
	}
}

// NumFrames returns the sealed machine's size in frames.
func (s *Snapshot) NumFrames() int { return len(s.frames) }

// Fork stamps out a copy-on-write instance of the sealed machine. The
// fork has no telemetry, fault or span sinks attached; callers attach
// the cell's own. Safe for concurrent use.
func (s *Snapshot) Fork() *Memory {
	chunks := (len(s.frames) + chunkSize - 1) / chunkSize
	words := (chunks + 63) / 64
	m := &Memory{
		frames:      make([]*[PageSize]byte, len(s.frames)),
		pageInfo:    make([]PageInfo, len(s.pageInfo)),
		m2p:         make([]m2pEntry, len(s.m2p)),
		freeWords:   make([]uint64, len(s.freeWords)),
		freeSummary: make([]uint64, len(s.freeSummary)),
		ownInfo:     make([]uint64, words),
		ownM2P:      make([]uint64, words),
		snap:        s,
	}
	s.Reset(m)
	return m
}

// Reset returns a fork of this snapshot to the sealed state in place
// and detaches its sinks, so the fork can serve another cell. Every
// ownership bit is cleared, so the next access re-clones each chunk
// from the snapshot; every materialized frame is dropped and its buffer
// kept for the fork's next first writes. Only a fork whose cell
// completed cleanly should be reset for reuse: a cell that crashed,
// hung, wedged or was cancelled abandons its fork to the garbage
// collector instead. Reset panics on a Memory that is not a fork of s.
func (s *Snapshot) Reset(m *Memory) {
	if m == nil || m.snap != s {
		panic("mm: Reset of a machine that is not a fork of this snapshot")
	}
	clear(m.ownInfo)
	clear(m.ownM2P)
	for _, mfn := range m.dirtyFrames {
		m.kept = append(m.kept, m.frames[mfn])
		m.frames[mfn] = nil
	}
	m.dirtyFrames = m.dirtyFrames[:0]
	copy(m.freeWords, s.freeWords)
	copy(m.freeSummary, s.freeSummary)
	m.freeCount = s.freeCount
	m.allocated = s.allocated
	m.tel, m.flt, m.spans = nil, nil, nil
}

// Copy-on-write plumbing. A Memory with snap != nil reads unowned
// state through the snapshot; every write path takes ownership of the
// enclosing chunk (or materializes the frame) first.

func chunkOwned(bits []uint64, chunk uint) bool {
	return bits[chunk>>6]>>(chunk&63)&1 == 1
}

// ownInfoChunk ensures the fork privately owns the frame-table chunk
// containing mfn, cloning it from the snapshot on first access.
func (m *Memory) ownInfoChunk(mfn MFN) {
	c := uint(mfn) >> chunkShift
	if chunkOwned(m.ownInfo, c) {
		return
	}
	m.ownInfo[c>>6] |= 1 << (c & 63)
	lo := int(c) << chunkShift
	hi := lo + chunkSize
	if hi > len(m.pageInfo) {
		hi = len(m.pageInfo)
	}
	copy(m.pageInfo[lo:hi], m.snap.pageInfo[lo:hi])
}

// ownM2PChunk is ownInfoChunk for the M2P table.
func (m *Memory) ownM2PChunk(mfn MFN) {
	c := uint(mfn) >> chunkShift
	if chunkOwned(m.ownM2P, c) {
		return
	}
	m.ownM2P[c>>6] |= 1 << (c & 63)
	lo := int(c) << chunkShift
	hi := lo + chunkSize
	if hi > len(m.m2p) {
		hi = len(m.m2p)
	}
	copy(m.m2p[lo:hi], m.snap.m2p[lo:hi])
}

// m2pAt reads one M2P entry, through the snapshot when the fork does
// not own the chunk. The caller must have validated mfn.
func (m *Memory) m2pAt(mfn MFN) m2pEntry {
	if m.snap != nil && !chunkOwned(m.ownM2P, uint(mfn)>>chunkShift) {
		return m.snap.m2p[mfn]
	}
	return m.m2p[mfn]
}

// m2pRef returns a writable pointer to one M2P entry, taking chunk
// ownership first. The caller must have validated mfn.
func (m *Memory) m2pRef(mfn MFN) *m2pEntry {
	if m.snap != nil {
		m.ownM2PChunk(mfn)
	}
	return &m.m2p[mfn]
}

// frameRead returns the frame's backing store for reading: the fork's
// private copy if one exists, the snapshot's sealed content otherwise,
// and the shared zero frame when neither has ever been written. The
// returned slice must not be written.
func (m *Memory) frameRead(mfn MFN) []byte {
	if f := m.frames[mfn]; f != nil {
		return f[:]
	}
	if m.snap != nil {
		if f := m.snap.frames[mfn]; f != nil {
			return f[:]
		}
	}
	return zeroFrame[:]
}

// frameWrite returns private, writable backing store for the frame,
// materializing it (seeded from the snapshot's content, if any) on
// first write.
func (m *Memory) frameWrite(mfn MFN) []byte {
	if f := m.frames[mfn]; f != nil {
		return f[:]
	}
	var sealed *[PageSize]byte
	if m.snap != nil {
		sealed = m.snap.frames[mfn]
	}
	return m.materialize(mfn, sealed)[:]
}

// materialize gives the frame private backing store holding src, or
// zeros when src is nil. It reuses a buffer a Reset kept before it
// allocates one, and overwrites a kept buffer in full, so no byte of an
// earlier cell survives. A fork records the frame as dirty.
func (m *Memory) materialize(mfn MFN, src *[PageSize]byte) *[PageSize]byte {
	var f *[PageSize]byte
	if n := len(m.kept); n > 0 {
		f = m.kept[n-1]
		m.kept = m.kept[:n-1]
		if src == nil {
			clear(f[:])
		}
	} else {
		f = new([PageSize]byte)
	}
	if src != nil {
		*f = *src
	}
	if m.snap != nil {
		m.dirtyFrames = append(m.dirtyFrames, mfn)
	}
	m.frames[mfn] = f
	return f
}
