// Package mm models the machine-level memory substrate of a virtualized
// host: physical frames, the global frame table that tracks ownership,
// type and reference counts for every frame, and the pseudo-physical to
// machine (P2M) and machine to pseudo-physical (M2P) translation tables
// that a paravirtualizing hypervisor maintains on behalf of its guests.
//
// The package corresponds to the lowest layer of the Xen-style memory
// management stack described in Section V-A of the paper ("Xen Memory
// Management"): everything above it — page-table validation, direct
// paging, the injector — manipulates state that ultimately lives here.
package mm

import (
	"errors"
	"fmt"

	"repro/internal/faults"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// Page geometry for the simulated x86-64 machine. Frames are 4 KiB,
// matching the granularity at which the frame table, the P2M and every
// page-table level operate.
const (
	// PageShift is log2 of the machine page size.
	PageShift = 12
	// PageSize is the machine page size in bytes.
	PageSize = 1 << PageShift
	// PageMask masks the offset-within-page bits of an address.
	PageMask = PageSize - 1
)

// MFN is a machine frame number: the index of a physical 4 KiB frame in
// host memory. MFNs are globally meaningful — every domain and the
// hypervisor itself refer to the same frame by the same MFN.
type MFN uint64

// PFN is a guest pseudo-physical frame number: the index of a page in a
// guest's own contiguous view of "physical" memory. PFNs are only
// meaningful relative to a domain's P2M table.
type PFN uint64

// PhysAddr is a machine-physical byte address.
type PhysAddr uint64

// Frame returns the machine frame containing the address.
func (a PhysAddr) Frame() MFN { return MFN(a >> PageShift) }

// Offset returns the byte offset of the address within its frame.
func (a PhysAddr) Offset() uint64 { return uint64(a) & PageMask }

// Addr returns the machine-physical address of the first byte of the frame.
func (m MFN) Addr() PhysAddr { return PhysAddr(m) << PageShift }

// DomID identifies a domain (virtual machine). Domain 0 is the privileged
// control domain; IDs at or above DomFirstGuest are unprivileged guests.
// The sentinel owners below mirror Xen's special "system" domains.
type DomID uint16

// Reserved domain identifiers.
const (
	// Dom0 is the privileged control domain.
	Dom0 DomID = 0
	// DomFirstGuest is the first identifier handed to unprivileged guests.
	DomFirstGuest DomID = 1
	// DomXen marks frames owned by the hypervisor itself (text, data,
	// IDT, idle page tables).
	DomXen DomID = 0x7ff2
	// DomIO marks frames that model memory-mapped I/O; they are never
	// handed to the allocator.
	DomIO DomID = 0x7ff1
	// DomInvalid is the owner of frames that belong to nobody (free).
	DomInvalid DomID = 0x7fff
)

// FrameType classifies the current validated use of a machine frame. A
// frame's type gates what the hypervisor's page-table validation allows:
// only TypeWritable frames may be mapped writable by guests, and only
// TypeL1..TypeL4 frames may appear at the corresponding level of a guest
// page-table tree. This is the invariant the XSA-148/182 class of
// vulnerabilities breaks.
type FrameType uint8

// Frame types. The zero value is deliberately invalid so that an
// uninitialized PageInfo is detectable.
const (
	// TypeNone marks a frame with no validated type yet; it can be
	// promoted to any other type.
	TypeNone FrameType = iota + 1
	// TypeWritable marks ordinary guest data that may be mapped writable.
	TypeWritable
	// TypeL1 .. TypeL4 mark frames validated as page tables of the given
	// level. They must never be mapped writable by a guest.
	TypeL1
	TypeL2
	TypeL3
	TypeL4
	// TypeSegDesc marks frames holding segment descriptor tables (GDT/LDT).
	TypeSegDesc
	// TypeGrant marks frames shared through the grant-table mechanism.
	TypeGrant
)

// String returns the Xen-style short name of the frame type.
func (t FrameType) String() string {
	switch t {
	case TypeNone:
		return "none"
	case TypeWritable:
		return "writable"
	case TypeL1:
		return "l1"
	case TypeL2:
		return "l2"
	case TypeL3:
		return "l3"
	case TypeL4:
		return "l4"
	case TypeSegDesc:
		return "segdesc"
	case TypeGrant:
		return "grant"
	default:
		return fmt.Sprintf("FrameType(%d)", uint8(t))
	}
}

// IsPageTable reports whether the type is one of the four page-table
// levels. The 4.13 hardening profile denies guest-writable mappings of
// any frame for which this is true.
func (t FrameType) IsPageTable() bool {
	return t >= TypeL1 && t <= TypeL4
}

// PageTableLevel returns 1..4 for page-table types and 0 otherwise.
func (t FrameType) PageTableLevel() int {
	if !t.IsPageTable() {
		return 0
	}
	return int(t-TypeL1) + 1
}

// TypeForLevel returns the frame type that a page table of the given
// level (1..4) must carry.
func TypeForLevel(level int) (FrameType, error) {
	if level < 1 || level > 4 {
		return TypeNone, fmt.Errorf("mm: no page-table type for level %d", level)
	}
	return TypeL1 + FrameType(level-1), nil
}

// PageInfo is the frame-table record for one machine frame, the analogue
// of Xen's struct page_info. It tracks who owns the frame, how it has
// been validated for use (type + type count), and how many references
// (mappings) exist to it.
type PageInfo struct {
	// Owner is the domain the frame currently belongs to.
	Owner DomID
	// Type is the validated type of the frame.
	Type FrameType
	// TypeCount counts uses of the frame *as its validated type* — e.g.
	// the number of page-table trees an L2 frame is linked into. The
	// type may only change while TypeCount is zero.
	TypeCount uint32
	// RefCount counts general references to the frame (existence
	// references plus mappings). A frame with a nonzero RefCount must
	// not be freed.
	RefCount uint32
	// Pinned records an explicit guest pin of a page-table frame
	// (MMUEXT_PIN_LxTABLE): the type is held even with no mappings.
	Pinned bool
}

// Errors reported by the memory substrate.
var (
	// ErrBadMFN is returned for frame numbers outside machine memory.
	ErrBadMFN = errors.New("mm: machine frame number out of range")
	// ErrBadPhysAddr is returned when a physical byte range leaves memory.
	ErrBadPhysAddr = errors.New("mm: physical address out of range")
	// ErrOutOfMemory is returned when the allocator has no free frames.
	ErrOutOfMemory = errors.New("mm: out of machine memory")
	// ErrFrameBusy is returned when freeing or retyping a frame that
	// still has outstanding references or type uses.
	ErrFrameBusy = errors.New("mm: frame has outstanding references")
	// ErrNotOwner is returned when a domain operates on a foreign frame.
	ErrNotOwner = errors.New("mm: frame not owned by caller")
	// ErrTypeConflict is returned when a frame is used as two
	// incompatible types at once.
	ErrTypeConflict = errors.New("mm: frame type conflict")
	// ErrNoMapping is returned by P2M/M2P lookups with no translation.
	ErrNoMapping = errors.New("mm: no such translation")
)

// Memory is the machine: a flat array of frames plus the frame table and
// the global M2P table. Frame contents are allocated lazily, so a large
// simulated machine costs memory proportional only to the frames touched.
//
// Memory is not safe for concurrent use; the simulator is deterministic
// and single-threaded by design (see DESIGN.md). The campaign engine
// runs environments concurrently by giving each its own Memory.
//
// Free frames are tracked in a two-level bitmap (the indexed free-set):
// bit b of freeWords[w] is set iff frame w*64+b is free, and bit i of
// freeSummary[s] is set iff freeWords[s*64+i] has any free frame. The
// summary makes lowest-free lookup a couple of trailing-zero counts, so
// Alloc, AllocAt and Free are O(1) and AllocRange is O(range) plus a
// word-granular skip over allocated regions.
type Memory struct {
	frames      [][]byte
	pageInfo    []PageInfo
	m2p         []m2pEntry
	freeWords   []uint64
	freeSummary []uint64
	freeCount   int
	allocated   int

	// tel observes allocator and frame-type activity; nil (the
	// default) disables telemetry at near-zero cost.
	tel *telemetry.Recorder

	// flt is the machine's fault-injection plane; nil (the default)
	// disables it at the cost of one predicted branch per allocation.
	flt *faults.Injector

	// spans receives a causal span per range allocation; nil (the
	// default) disables span capture at the same near-zero cost.
	spans *span.Tree

	// snap, when non-nil, marks this Memory as a copy-on-write fork of
	// a sealed Snapshot: unowned frame-table and M2P chunks read
	// through the snapshot and clone on first write, tracked in the
	// ownership bitmaps below; frame contents materialize per frame on
	// first write, tracked in dirtyFrames for arena-style reuse. See
	// snapshot.go.
	snap        *Snapshot
	ownInfo     []uint64
	ownM2P      []uint64
	dirtyFrames []MFN
}

// AttachTelemetry installs the machine's telemetry sink. A nil recorder
// (or never calling this) leaves telemetry disabled.
func (m *Memory) AttachTelemetry(r *telemetry.Recorder) { m.tel = r }

// AttachFaults installs the machine's fault-injection plane. A nil
// injector (or never calling this) leaves fault injection disabled.
func (m *Memory) AttachFaults(f *faults.Injector) { m.flt = f }

// AttachSpans installs the machine's causal span tree. A nil tree (or
// never calling this) leaves span capture disabled.
func (m *Memory) AttachSpans(t *span.Tree) { m.spans = t }

type m2pEntry struct {
	dom   DomID
	pfn   PFN
	valid bool
}

// NewMemory creates a machine with the given number of 4 KiB frames. All
// frames start free (owner DomInvalid, type none).
func NewMemory(frames int) (*Memory, error) {
	if frames <= 0 {
		return nil, fmt.Errorf("mm: machine must have at least one frame, got %d", frames)
	}
	m := &Memory{
		frames:      make([][]byte, frames),
		pageInfo:    make([]PageInfo, frames),
		m2p:         make([]m2pEntry, frames),
		freeWords:   make([]uint64, (frames+63)/64),
		freeSummary: make([]uint64, ((frames+63)/64+63)/64),
	}
	for i := range m.pageInfo {
		m.pageInfo[i] = PageInfo{Owner: DomInvalid, Type: TypeNone}
	}
	for i := 0; i < frames; i++ {
		m.setFree(MFN(i))
	}
	return m, nil
}

// NumFrames returns the machine size in frames.
func (m *Memory) NumFrames() int { return len(m.frames) }

// Bytes returns the machine size in bytes.
func (m *Memory) Bytes() uint64 { return uint64(len(m.frames)) * PageSize }

// AllocatedFrames returns how many frames are currently allocated.
func (m *Memory) AllocatedFrames() int { return m.allocated }

// FreeFrames returns how many frames the allocator has available.
func (m *Memory) FreeFrames() int { return m.freeCount }

// ValidMFN reports whether the frame number addresses machine memory.
func (m *Memory) ValidMFN(mfn MFN) bool { return uint64(mfn) < uint64(len(m.frames)) }

// Info returns a pointer to the frame-table entry for the frame so the
// caller can inspect or update counts in place, mirroring how the
// hypervisor manipulates struct page_info. On a snapshot fork the
// returned pointer must be privately owned — callers may write through
// it — so the enclosing chunk is cloned on first access.
func (m *Memory) Info(mfn MFN) (*PageInfo, error) {
	if !m.ValidMFN(mfn) {
		return nil, fmt.Errorf("%w: mfn %#x (machine has %d frames)", ErrBadMFN, uint64(mfn), len(m.frames))
	}
	if m.snap != nil {
		m.ownInfoChunk(mfn)
	}
	return &m.pageInfo[mfn], nil
}

// ReadPhys copies len(buf) bytes starting at the machine-physical address
// into buf. The range may span frames but must stay inside machine memory.
func (m *Memory) ReadPhys(addr PhysAddr, buf []byte) error {
	return m.accessPhys(addr, buf, false)
}

// WritePhys copies buf into machine memory at the physical address.
func (m *Memory) WritePhys(addr PhysAddr, buf []byte) error {
	return m.accessPhys(addr, buf, true)
}

func (m *Memory) accessPhys(addr PhysAddr, buf []byte, write bool) error {
	if len(buf) == 0 {
		return nil
	}
	end := uint64(addr) + uint64(len(buf))
	if end < uint64(addr) || end > m.Bytes() {
		return fmt.Errorf("%w: [%#x, %#x)", ErrBadPhysAddr, uint64(addr), end)
	}
	done := 0
	for done < len(buf) {
		cur := PhysAddr(uint64(addr) + uint64(done))
		off := cur.Offset()
		var n int
		if write {
			n = copy(m.frameWrite(cur.Frame())[off:], buf[done:])
		} else {
			n = copy(buf[done:], m.frameRead(cur.Frame())[off:])
		}
		done += n
	}
	return nil
}

// ReadU64 reads a little-endian 64-bit word at the physical address.
func (m *Memory) ReadU64(addr PhysAddr) (uint64, error) {
	var b [8]byte
	if err := m.ReadPhys(addr, b[:]); err != nil {
		return 0, err
	}
	return leU64(b[:]), nil
}

// WriteU64 writes a little-endian 64-bit word at the physical address.
func (m *Memory) WriteU64(addr PhysAddr, v uint64) error {
	var b [8]byte
	putLEU64(b[:], v)
	return m.WritePhys(addr, b[:])
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLEU64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
