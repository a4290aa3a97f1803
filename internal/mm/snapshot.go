package mm

import (
	"sync"

	"repro/internal/coverage"
	"repro/internal/span"
	"repro/internal/telemetry"
)

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
// Forks from the same Snapshot may run on concurrent goroutines: the
// sealed state is never written again (every write path materializes
// private storage first), so shared reads are race-free.

// Chunk geometry for the lazily cloned frame-table and M2P arrays.
const (
	chunkShift = 6
	chunkSize  = 1 << chunkShift
)

// zeroFrame backs reads of never-written frames in forks and fresh
// machines alike. It must never be written; every write path
// materializes private storage first.
var zeroFrame = make([]byte, PageSize)

// journalKind tags one recorded boot-time observability operation.
type journalKind uint8

const (
	// jCounter is one telemetry counter increment (name = counter).
	jCounter journalKind = iota + 1
	// jTypeGet is one page-type validation reference (mfn, type name).
	jTypeGet
	// jTypePut is one page-type reference drop.
	jTypePut
	// jSpanStart opens one mm-op span (name = operation).
	jSpanStart
	// jSpanEnd closes the innermost replayed mm-op span.
	jSpanEnd
)

// journalOp is one replayable boot-time operation.
type journalOp struct {
	kind journalKind
	mfn  uint64
	name string
}

// bootJournal records the machine's boot-time telemetry and span
// activity in order, so Seal can fold it for forks to replay into
// per-cell sinks. All boot-time sink traffic originates in this package
// (the hypervisor and guest layers log to their consoles only), so the
// journal is a complete transcript of what a fresh boot would have
// emitted.
type bootJournal struct {
	ops []journalOp
}

// StartBootJournal begins recording the machine's observability
// activity for later replay. Call it on a fresh machine before booting
// the environment that will be sealed.
func (m *Memory) StartBootJournal() { m.jrn = &bootJournal{} }

func (j *bootJournal) record(kind journalKind, mfn uint64, name string) {
	j.ops = append(j.ops, journalOp{kind: kind, mfn: mfn, name: name})
}

// Snapshot is a sealed, immutable image of a booted machine plus the
// folded boot journal and a pool of reusable fork instances.
type Snapshot struct {
	frames      [][]byte
	pageInfo    []PageInfo
	m2p         []m2pEntry
	freeWords   []uint64
	freeSummary []uint64
	freeCount   int
	allocated   int

	boot bootFold

	mu   sync.Mutex
	pool []*Memory
}

// bootFold is the boot journal folded once per snapshot: what every
// fork's replay adds up to in bulk, the events its recorder shares,
// and the short ordered run of span ops it walks one by one.
type bootFold struct {
	// counters and cov are the totals the journal's counter increments,
	// page-type references and their coverage edges sum to.
	counters []telemetry.CounterValue
	cov      *coverage.Map
	// events are the journal's page-type events in boot order, the
	// read-only prefix every fork's recorder shares, and spans its mm-op
	// span opens and closes in the same order.
	events []telemetry.Event
	spans  []spanOp
}

// spanOp is one replayable mm-op span open or close, which the boot
// performed once `at` of its events had been emitted.
type spanOp struct {
	at   int
	name string
	open bool
}

// Seal captures the machine as an immutable snapshot, folding the boot
// journal (if one was recording) with fc classifying page-type frames
// for coverage, the classifier the booted hypervisor installs. The
// Memory must not be used afterward: its backing arrays become the
// snapshot's shared state, read concurrently by every fork.
func (m *Memory) Seal(fc coverage.FrameClassifier) *Snapshot {
	s := &Snapshot{
		frames:      m.frames,
		pageInfo:    m.pageInfo,
		m2p:         m.m2p,
		freeWords:   m.freeWords,
		freeSummary: m.freeSummary,
		freeCount:   m.freeCount,
		allocated:   m.allocated,
	}
	if m.jrn != nil {
		s.boot = m.jrn.fold(fc)
		m.jrn = nil
	}
	return s
}

// fold drives the journal once through a temporary recorder, exactly as
// a fresh boot drives a cell's, and keeps what it observed: its counter
// readings, its coverage map and its events, with the span ops placed
// between them.
func (j *bootJournal) fold(fc coverage.FrameClassifier) bootFold {
	rec := telemetry.NewRecorder(len(j.ops) + 1)
	rec.AttachCoverage(coverage.NewMap())
	rec.Coverage().SetFrameClassifier(fc)
	var f bootFold
	for _, op := range j.ops {
		switch op.kind {
		case jCounter:
			rec.Inc(op.name)
		case jTypeGet:
			rec.PageTypeGet(op.mfn, op.name)
		case jTypePut:
			rec.PageTypePut(op.mfn, op.name)
		case jSpanStart:
			f.spans = append(f.spans, spanOp{at: int(rec.Emitted()), name: op.name, open: true})
		case jSpanEnd:
			f.spans = append(f.spans, spanOp{at: int(rec.Emitted())})
		}
	}
	f.counters, f.cov, f.events = rec.Counters(), rec.Coverage(), rec.Events()
	return f
}

// NumFrames returns the sealed machine's size in frames.
func (s *Snapshot) NumFrames() int { return len(s.frames) }

// PoolSize reports how many recycled forks await reuse. Tests use it to
// verify that only cleanly completed cells return their forks.
func (s *Snapshot) PoolSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pool)
}

// Fork stamps out a copy-on-write instance of the sealed machine,
// reusing a pooled instance when one is available. The fork has no
// telemetry, fault or span sinks attached; callers attach per-cell
// sinks, Replay the folded boot journal into them, and only then attach
// the cell's fault plane. Safe for concurrent use.
func (s *Snapshot) Fork() *Memory {
	s.mu.Lock()
	var m *Memory
	if n := len(s.pool); n > 0 {
		m = s.pool[n-1]
		s.pool = s.pool[:n-1]
	}
	s.mu.Unlock()
	if m == nil {
		chunks := (len(s.frames) + chunkSize - 1) / chunkSize
		words := (chunks + 63) / 64
		m = &Memory{
			frames:      make([][]byte, len(s.frames)),
			pageInfo:    make([]PageInfo, len(s.pageInfo)),
			m2p:         make([]m2pEntry, len(s.m2p)),
			freeWords:   make([]uint64, len(s.freeWords)),
			freeSummary: make([]uint64, len(s.freeSummary)),
			ownInfo:     make([]uint64, words),
			ownM2P:      make([]uint64, words),
			snap:        s,
		}
	}
	copy(m.freeWords, s.freeWords)
	copy(m.freeSummary, s.freeSummary)
	m.freeCount = s.freeCount
	m.allocated = s.allocated
	return m
}

// Recycle resets a fork to the sealed state and returns it to the
// snapshot's pool for reuse. Only fully healthy forks should come
// back: a cell that crashed, hung, wedged or fired substrate faults
// abandons its fork to the garbage collector instead. Resetting is
// arena-style — ownership bits are cleared and materialized frames
// dropped, so the next Fork call re-clones lazily. Safe for
// concurrent use.
func (s *Snapshot) Recycle(m *Memory) {
	if m == nil || m.snap != s {
		return
	}
	for i := range m.ownInfo {
		m.ownInfo[i] = 0
	}
	for i := range m.ownM2P {
		m.ownM2P[i] = 0
	}
	for _, mfn := range m.dirtyFrames {
		m.frames[mfn] = nil
	}
	m.dirtyFrames = m.dirtyFrames[:0]
	m.tel, m.flt, m.spans = nil, nil, nil
	s.mu.Lock()
	s.pool = append(s.pool, m)
	s.mu.Unlock()
}

// Replay reproduces in the given per-cell sinks exactly the event
// stream, counter readings, coverage edges and span structure a fresh
// boot would have produced. The folded totals go in bulk: the counters
// and the coverage map. The boot's events are shared, not copied: the
// recorder adopts them as its read-only prefix (Recorder.ShareBoot),
// which advances Seq and the span tree's virtual clock past them, and
// the mm-op spans open and close at their recorded clock. Replay
// consults no fault plane: a cell's faults are attached after it, so
// its triggers count only the cell's own consults, on the fork path
// and the fresh-boot path alike. Both sinks are nil-safe; with neither
// attached the replay is skipped entirely.
func (s *Snapshot) Replay(tel *telemetry.Recorder, tree *span.Tree) {
	if tel == nil && tree == nil {
		return
	}
	b := &s.boot
	for _, c := range b.counters {
		tel.Add(c.Name, c.Value)
	}
	tel.Coverage().Merge(b.cov)
	var stack []int
	for _, op := range b.spans {
		tel.ShareBoot(b.events[:op.at])
		if op.open {
			stack = append(stack, tree.MMOp(op.name))
		} else if n := len(stack); n > 0 {
			tree.End(stack[n-1])
			stack = stack[:n-1]
		}
	}
	tel.ShareBoot(b.events)
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
		return f
	}
	if m.snap != nil {
		if f := m.snap.frames[mfn]; f != nil {
			return f
		}
	}
	return zeroFrame
}

// frameWrite returns private, writable backing store for the frame,
// materializing it (seeded from the snapshot's content, if any) on
// first write.
func (m *Memory) frameWrite(mfn MFN) []byte {
	if f := m.frames[mfn]; f != nil {
		return f
	}
	f := make([]byte, PageSize)
	if m.snap != nil {
		if sf := m.snap.frames[mfn]; sf != nil {
			copy(f, sf)
		}
		m.dirtyFrames = append(m.dirtyFrames, mfn)
	}
	m.frames[mfn] = f
	return f
}
