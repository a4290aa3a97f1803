package hv

import (
	"fmt"

	"repro/internal/mm"
	"repro/internal/telemetry"
)

// HypercallDomctl is the management-plane hypercall, callable only from
// the privileged domain. It is the substrate for the intrusion models
// the paper plans around "activities originating from the management
// interface" (Section IX-C): a compromised toolstack wields exactly
// these operations.
const HypercallDomctl = 36

// DomctlOp selects a management operation.
type DomctlOp uint8

// Management operations.
const (
	// DomctlPause stops a domain from making hypercalls.
	DomctlPause DomctlOp = iota + 1
	// DomctlUnpause resumes it.
	DomctlUnpause
	// DomctlDestroy tears the domain down; it lingers as a zombie (its
	// frames stay allocated) until reaped, as in the real toolstack.
	DomctlDestroy
	// DomctlReadMemory reads a page of the target's pseudo-physical
	// memory, the debugger/introspection path.
	DomctlReadMemory
	// DomctlGetInfo reports the domain's state.
	DomctlGetInfo
)

// String names the operation.
func (o DomctlOp) String() string {
	switch o {
	case DomctlPause:
		return "pause"
	case DomctlUnpause:
		return "unpause"
	case DomctlDestroy:
		return "destroy"
	case DomctlReadMemory:
		return "read-memory"
	case DomctlGetInfo:
		return "get-info"
	default:
		return fmt.Sprintf("DomctlOp(%d)", uint8(o))
	}
}

// domctlOps are the domctl operations as telemetry records them.
var domctlOps = func() map[DomctlOp]telemetry.Op {
	ops := make(map[DomctlOp]telemetry.Op)
	for o := DomctlPause; o <= DomctlGetInfo; o++ {
		ops[o] = telemetry.NewOp("domctl", o.String())
	}
	return ops
}()

// telemetryOp returns the operation's telemetry op.
func (o DomctlOp) telemetryOp() telemetry.Op {
	if op, ok := domctlOps[o]; ok {
		return op
	}
	return telemetry.NewOp("domctl", o.String())
}

// DomainInfo is the DomctlGetInfo result.
type DomainInfo struct {
	Name       string
	Frames     int
	Privileged bool
	Paused     bool
	Destroyed  bool
}

// DomctlArgs is the management hypercall argument.
type DomctlArgs struct {
	Op     DomctlOp
	Target mm.DomID

	// PFN and Buf parameterize DomctlReadMemory.
	PFN mm.PFN
	Buf []byte

	// Info receives the DomctlGetInfo result.
	Info DomainInfo
}

// Paused reports whether the domain's execution is suspended.
func (d *Domain) Paused() bool { return d.paused }

// Destroyed reports whether the domain has been torn down.
func (d *Domain) Destroyed() bool { return d.destroyed }

func (h *Hypervisor) domctl(caller *Domain, args *DomctlArgs) error {
	if !caller.privileged {
		return fmt.Errorf("%w: domctl from unprivileged dom%d", ErrPerm, caller.id)
	}
	target, err := h.Domain(args.Target)
	if err != nil {
		return err
	}
	h.cfg.tel.DomctlOp(uint16(caller.id), args.Op.telemetryOp(), uint16(args.Target))
	switch args.Op {
	case DomctlPause:
		target.paused = true
		h.Logf("dom%d paused by the toolstack", target.id)
		return nil
	case DomctlUnpause:
		target.paused = false
		h.Logf("dom%d unpaused", target.id)
		return nil
	case DomctlDestroy:
		if target.privileged {
			return fmt.Errorf("%w: refusing to destroy dom0", ErrInval)
		}
		target.destroyed = true
		target.paused = true
		delete(h.domains, target.id)
		h.Logf("dom%d (%s) destroyed; frames linger as zombie until reaped", target.id, target.name)
		return nil
	case DomctlReadMemory:
		if len(args.Buf) == 0 || len(args.Buf) > mm.PageSize {
			return fmt.Errorf("%w: read size %d", ErrInval, len(args.Buf))
		}
		mfn, err := target.p2m.Lookup(args.PFN)
		if err != nil {
			return fmt.Errorf("%w: target pfn %#x: %v", ErrInval, uint64(args.PFN), err)
		}
		return h.mem.ReadPhys(mfn.Addr(), args.Buf)
	case DomctlGetInfo:
		args.Info = DomainInfo{
			Name:       target.name,
			Frames:     target.frames,
			Privileged: target.privileged,
			Paused:     target.paused,
			Destroyed:  target.destroyed,
		}
		return nil
	default:
		return fmt.Errorf("%w: domctl op %d", ErrInval, args.Op)
	}
}
