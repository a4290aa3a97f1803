package pagetable

import (
	"fmt"

	"repro/internal/mm"
	"repro/internal/telemetry"
)

// Access is the kind of memory access a walk authorizes.
type Access uint8

// Access kinds.
const (
	// AccessRead is a data read.
	AccessRead Access = iota + 1
	// AccessWrite is a data write.
	AccessWrite
	// AccessExec is an instruction fetch.
	AccessExec
)

// String returns the short name of the access kind.
func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	default:
		return fmt.Sprintf("Access(%d)", uint8(a))
	}
}

// Fault describes a page-translation failure: the simulated #PF. The CPU
// layer turns it into exception delivery; guest kernels report it as an
// "unable to handle page request" oops, matching the failure mode the
// paper observes for the original PoCs on fixed versions.
type Fault struct {
	// VA is the faulting virtual address (CR2).
	VA uint64
	// Access is the attempted access kind.
	Access Access
	// Level is the page-table level at which the walk failed (4..1), or
	// 0 for failures not tied to a level (non-canonical, policy denial).
	Level int
	// Reason is a human-readable cause for experiment logs.
	Reason string
}

// Error implements the error interface.
func (f *Fault) Error() string {
	if f.Level > 0 {
		return fmt.Sprintf("page fault: %s of %#x denied at L%d: %s", f.Access, f.VA, f.Level, f.Reason)
	}
	return fmt.Sprintf("page fault: %s of %#x denied: %s", f.Access, f.VA, f.Reason)
}

// Policy is the version-dependent access policy consulted at the end of a
// successful flag walk. The 4.13 hardening profile uses it to refuse
// guest write access to frames validated as page tables even when the
// PTE flags would allow the write (the XSA-213..315 follow-up measures);
// earlier profiles install a permissive policy.
type Policy interface {
	// CheckLeaf may veto an access that the PTE flags permit. target is
	// the machine frame the walk resolved to; guestInitiated
	// distinguishes guest accesses from hypervisor-internal ones.
	CheckLeaf(mem *mm.Memory, target mm.MFN, acc Access, guestInitiated bool) error
}

// PermissivePolicy accepts every access the PTE flags allow; it models
// the pre-hardening profiles (4.6, 4.8).
type PermissivePolicy struct{}

var _ Policy = PermissivePolicy{}

// CheckLeaf implements Policy by always allowing the access.
func (PermissivePolicy) CheckLeaf(*mm.Memory, mm.MFN, Access, bool) error { return nil }

// Walk records the outcome of a successful translation: every entry
// consulted, the accumulated permissions, and the target machine address.
// The erroneous-state auditors use it to compare the page linkage induced
// by exploits against the one produced by injection ("a page-table walk
// to audit the same erroneous state was performed", Section VI-C).
// A Walk is a plain value with fixed-size arrays, so a translation
// allocates nothing.
type Walk struct {
	// VA is the translated virtual address.
	VA uint64
	// Levels is how many tables the walk consulted: 4 for a 4 KiB leaf,
	// 3 for a 2 MiB superpage. Only Tables[:Levels] and
	// Entries[:Levels] are filled.
	Levels int
	// Tables[i] is the frame of the level-(4-i) table consulted, so
	// Tables[0] is the L4 root.
	Tables [4]mm.MFN
	// Entries[i] is the entry read from Tables[i].
	Entries [4]Entry
	// Superpage reports whether translation ended at a 2 MiB L2 leaf.
	Superpage bool
	// MFN is the target machine frame.
	MFN mm.MFN
	// Phys is the full target machine-physical address.
	Phys mm.PhysAddr
	// Writable, User and NoExec are the permissions accumulated across
	// all consulted levels.
	Writable bool
	User     bool
	NoExec   bool
}

// Walker translates virtual addresses through a page-table tree in
// machine memory, applying the architecture's flag semantics and the
// installed policy.
type Walker struct {
	mem    *mm.Memory
	policy Policy
	tel    *telemetry.Recorder
}

// NewWalker creates a walker over the machine. A nil policy means
// permissive.
func NewWalker(mem *mm.Memory, policy Policy) *Walker {
	if policy == nil {
		policy = PermissivePolicy{}
	}
	return &Walker{mem: mem, policy: policy}
}

// AttachTelemetry installs the walker's telemetry sink; nil disables.
// Faults are counted; policy vetoes additionally emit a walk_denied
// event, since those are the hardening decisions an assessment audits.
func (w *Walker) AttachTelemetry(r *telemetry.Recorder) { w.tel = r }

// Translate walks the tree rooted at root for va. guestInitiated marks
// accesses performed on behalf of guest code (subject to the U/S bit and
// the policy) as opposed to hypervisor-internal accesses. A/D bits are
// written back on success, mirroring hardware behaviour; flag-only A/D
// updates are precisely the "safe" changes the XSA-182 fast path was
// meant to allow. On error the returned Walk is the zero value.
func (w *Walker) Translate(root mm.MFN, va uint64, acc Access, guestInitiated bool) (Walk, error) {
	walk := Walk{VA: va, Writable: true, User: true}
	if err := w.translate(&walk, root, acc, guestInitiated); err != nil {
		w.tel.WalkFault()
		return Walk{}, err
	}
	return walk, nil
}

// translate fills walk, whose VA is set, by walking the tree at root.
func (w *Walker) translate(walk *Walk, root mm.MFN, acc Access, guestInitiated bool) error {
	va := walk.VA
	if !Canonical(va) {
		return &Fault{VA: va, Access: acc, Reason: "non-canonical address"}
	}
	if !w.mem.ValidMFN(root) {
		return &Fault{VA: va, Access: acc, Level: 4, Reason: "page-table root outside machine memory"}
	}
	table := root
	for level := 4; level >= 1; level-- {
		idx, err := Index(va, level)
		if err != nil {
			return err
		}
		e, err := ReadEntry(w.mem, table, idx)
		if err != nil {
			return &Fault{VA: va, Access: acc, Level: level, Reason: fmt.Sprintf("table frame unreadable: %v", err)}
		}
		walk.Tables[walk.Levels] = table
		walk.Entries[walk.Levels] = e
		walk.Levels++
		if !e.Present() {
			return &Fault{VA: va, Access: acc, Level: level, Reason: "entry not present"}
		}
		walk.Writable = walk.Writable && e.Writable()
		walk.User = walk.User && e.User()
		walk.NoExec = walk.NoExec || e.NoExec()
		if !w.mem.ValidMFN(e.MFN()) {
			return &Fault{VA: va, Access: acc, Level: level, Reason: "entry references frame outside machine memory"}
		}
		if level == 2 && e.Superpage() {
			// 2 MiB leaf: frame = base + L1 index.
			l1, err := Index(va, 1)
			if err != nil {
				return err
			}
			walk.Superpage = true
			walk.MFN = e.MFN() + mm.MFN(l1)
			if !w.mem.ValidMFN(walk.MFN) {
				return &Fault{VA: va, Access: acc, Level: level, Reason: "superpage extends past machine memory"}
			}
			break
		}
		if level == 1 {
			walk.MFN = e.MFN()
			break
		}
		table = e.MFN()
	}
	walk.Phys = walk.MFN.Addr() + mm.PhysAddr(va&mm.PageMask)
	if err := w.check(walk, acc, guestInitiated); err != nil {
		return err
	}
	w.setAccessedDirty(walk, acc)
	return nil
}

func (w *Walker) check(walk *Walk, acc Access, guestInitiated bool) error {
	if guestInitiated && !walk.User {
		return &Fault{VA: walk.VA, Access: acc, Reason: "supervisor-only mapping"}
	}
	switch acc {
	case AccessWrite:
		if !walk.Writable {
			return &Fault{VA: walk.VA, Access: acc, Reason: "read-only mapping"}
		}
	case AccessExec:
		if walk.NoExec {
			return &Fault{VA: walk.VA, Access: acc, Reason: "no-execute mapping"}
		}
	case AccessRead:
		// Present is sufficient.
	default:
		return fmt.Errorf("pagetable: unknown access kind %d", acc)
	}
	if err := w.policy.CheckLeaf(w.mem, walk.MFN, acc, guestInitiated); err != nil {
		w.tel.WalkDenied(walk.VA, err.Error())
		return &Fault{VA: walk.VA, Access: acc, Reason: err.Error()}
	}
	return nil
}

// setAccessedDirty writes A bits on every consulted entry and the D bit
// on the leaf for writes. Failures are ignored: the entries were just
// read successfully, and A/D write-back is best-effort on hardware too.
func (w *Walker) setAccessedDirty(walk *Walk, acc Access) {
	for i, e := range walk.Entries[:walk.Levels] {
		level := 4 - i
		idx, err := Index(walk.VA, level)
		if err != nil {
			return
		}
		updated := e.WithFlags(FlagAccessed)
		leaf := i == walk.Levels-1
		if leaf && acc == AccessWrite {
			updated = updated.WithFlags(FlagDirty)
		}
		if updated != e {
			_ = WriteEntry(w.mem, walk.Tables[i], idx, updated)
			walk.Entries[i] = updated
		}
	}
}
