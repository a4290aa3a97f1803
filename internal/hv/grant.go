package hv

import (
	"fmt"

	"repro/internal/mm"
	"repro/internal/telemetry"
)

// Grant-table sizes.
const (
	// GrantEntries is the number of grant references per domain.
	GrantEntries = 32
)

// GrantEntry is one v1-style grant: the owner domain permits ToDom to map
// the frame behind PFN.
type GrantEntry struct {
	InUse    bool
	ToDom    mm.DomID
	PFN      mm.PFN
	ReadOnly bool
	MapCount int
}

// grantTable is a domain's grant state. Version 2 adds hypervisor-owned
// status frames the guest holds a reference to; the v2 -> v1 downgrade is
// where the XSA-387-class bug lives: on leaky profiles the status-frame
// references are not released, leaving the guest with access to a page
// that has been returned to the hypervisor — the "Keep Page Access"
// abusive functionality of Table I.
type grantTable struct {
	version      int
	entries      [GrantEntries]GrantEntry
	statusFrames []mm.MFN
}

// Grant-table operations, multiplexed on argument type.

// GrantSetVersionArgs switches the domain's grant-table ABI version.
type GrantSetVersionArgs struct {
	Version int
}

// GrantAccessArgs fills a grant entry permitting ToDom to map PFN.
type GrantAccessArgs struct {
	Ref      int
	ToDom    mm.DomID
	PFN      mm.PFN
	ReadOnly bool
}

// GrantMapArgs maps a grant offered by FromDom at reference Ref into the
// calling domain.
type GrantMapArgs struct {
	FromDom mm.DomID
	Ref     int

	// MFN receives the mapped machine frame.
	MFN mm.MFN
}

// GrantUnmapArgs releases a mapping taken with GrantMapArgs.
type GrantUnmapArgs struct {
	FromDom mm.DomID
	Ref     int
}

func (d *Domain) grants() *grantTable {
	if d.grantTable == nil {
		d.grantTable = &grantTable{version: 1}
	}
	return d.grantTable
}

// GrantTableVersion returns the domain's current grant ABI version.
func (d *Domain) GrantTableVersion() int { return d.grants().version }

// GrantStatusFrames returns the hypervisor-owned status frames currently
// referenced by the domain — nonempty after a leaky downgrade even though
// the table is back at v1, which is the auditable erroneous state.
func (d *Domain) GrantStatusFrames() []mm.MFN {
	out := make([]mm.MFN, len(d.grants().statusFrames))
	copy(out, d.grants().statusFrames)
	return out
}

// The grant-table operations as telemetry records them.
var (
	grantOpSetVersion = telemetry.NewOp("grant", "set_version")
	grantOpAccess     = telemetry.NewOp("grant", "access")
	grantOpMap        = telemetry.NewOp("grant", "map")
	grantOpUnmap      = telemetry.NewOp("grant", "unmap")
)

func (h *Hypervisor) grantTableOp(d *Domain, arg any) error {
	switch a := arg.(type) {
	case *GrantSetVersionArgs:
		h.cfg.tel.GrantOp(uint16(d.id), grantOpSetVersion, a.Version)
		return h.grantSetVersion(d, a)
	case *GrantAccessArgs:
		h.cfg.tel.GrantOp(uint16(d.id), grantOpAccess, a.Ref)
		return h.grantAccess(d, a)
	case *GrantMapArgs:
		h.cfg.tel.GrantOp(uint16(d.id), grantOpMap, a.Ref)
		return h.grantMap(d, a)
	case *GrantUnmapArgs:
		h.cfg.tel.GrantOp(uint16(d.id), grantOpUnmap, a.Ref)
		return h.grantUnmap(d, a)
	default:
		return fmt.Errorf("%w: grant_table_op got %T", ErrInval, arg)
	}
}

func (h *Hypervisor) grantSetVersion(d *Domain, args *GrantSetVersionArgs) error {
	gt := d.grants()
	switch args.Version {
	case 1:
		if gt.version == 2 {
			if h.version.GrantV2StatusLeak {
				// The bug: the table downgrades but the status-frame
				// references are never released. The guest keeps access
				// to hypervisor pages it should have lost.
				h.Logf("grant table of dom%d switched v2->v1 (status pages NOT reclaimed)", d.id)
				gt.version = 1
				return nil
			}
			for _, mfn := range gt.statusFrames {
				if err := h.mem.PutRef(mfn); err != nil {
					return err
				}
				if err := h.mem.PutType(mfn); err != nil {
					return err
				}
				if err := h.mem.Free(mfn); err != nil {
					return err
				}
			}
			gt.statusFrames = nil
		}
		gt.version = 1
		return nil
	case 2:
		if gt.version == 2 {
			return nil
		}
		status, err := h.mem.Alloc(mm.DomXen)
		if err != nil {
			return fmt.Errorf("%w: allocating grant status frame: %v", ErrNoMem, err)
		}
		if err := h.mem.GetType(status, mm.TypeGrant); err != nil {
			return err
		}
		// The guest's mapping of the status page is modeled as a
		// reference held on its behalf.
		if err := h.mem.GetRef(status, mm.DomXen); err != nil {
			return err
		}
		gt.statusFrames = append(gt.statusFrames, status)
		gt.version = 2
		return nil
	default:
		return fmt.Errorf("%w: grant table version %d", ErrInval, args.Version)
	}
}

func (h *Hypervisor) grantAccess(d *Domain, args *GrantAccessArgs) error {
	gt := d.grants()
	if args.Ref < 0 || args.Ref >= GrantEntries {
		return fmt.Errorf("%w: grant ref %d", ErrInval, args.Ref)
	}
	if !d.p2m.Contains(args.PFN) {
		return fmt.Errorf("%w: pfn %#x not populated", ErrInval, uint64(args.PFN))
	}
	e := &gt.entries[args.Ref]
	if e.InUse && e.MapCount > 0 {
		return fmt.Errorf("%w: grant ref %d has %d live mappings", ErrInval, args.Ref, e.MapCount)
	}
	*e = GrantEntry{InUse: true, ToDom: args.ToDom, PFN: args.PFN, ReadOnly: args.ReadOnly}
	return nil
}

func (h *Hypervisor) grantMap(d *Domain, args *GrantMapArgs) error {
	from, err := h.Domain(args.FromDom)
	if err != nil {
		return err
	}
	gt := from.grants()
	if args.Ref < 0 || args.Ref >= GrantEntries {
		return fmt.Errorf("%w: grant ref %d", ErrInval, args.Ref)
	}
	e := &gt.entries[args.Ref]
	if !e.InUse {
		return fmt.Errorf("%w: grant ref %d not granted", ErrInval, args.Ref)
	}
	if e.ToDom != d.id {
		return fmt.Errorf("%w: grant ref %d is for dom%d, not dom%d", ErrPerm, args.Ref, e.ToDom, d.id)
	}
	mfn, err := from.p2m.Lookup(e.PFN)
	if err != nil {
		return fmt.Errorf("%w: granted pfn vanished: %v", ErrInval, err)
	}
	e.MapCount++
	args.MFN = mfn
	return nil
}

func (h *Hypervisor) grantUnmap(d *Domain, args *GrantUnmapArgs) error {
	from, err := h.Domain(args.FromDom)
	if err != nil {
		return err
	}
	gt := from.grants()
	if args.Ref < 0 || args.Ref >= GrantEntries {
		return fmt.Errorf("%w: grant ref %d", ErrInval, args.Ref)
	}
	e := &gt.entries[args.Ref]
	if !e.InUse || e.MapCount == 0 {
		return fmt.Errorf("%w: grant ref %d has no mapping to release", ErrInval, args.Ref)
	}
	e.MapCount--
	return nil
}
