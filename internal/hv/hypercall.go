package hv

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// Hypercall numbers, following the real PV ABI where one exists.
const (
	// HypercallMMUUpdate validates and applies page-table entry updates.
	HypercallMMUUpdate = 1
	// HypercallConsoleIO writes to the hypervisor console.
	HypercallConsoleIO = 18
	// HypercallGrantTableOp manipulates grant tables.
	HypercallGrantTableOp = 20
	// HypercallMMUExtOp pins/unpins tables and switches baseptr.
	HypercallMMUExtOp = 26
	// HypercallMemoryOp multiplexes exchange / populate / decrease.
	HypercallMemoryOp = 12
	// HypercallEventChannelOp manipulates event channels.
	HypercallEventChannelOp = 32
	// HypercallArbitraryAccess is the injector's hypercall (Section V-B
	// of the paper). It is absent unless an injector build registers it.
	HypercallArbitraryAccess = 41
	// HypercallStateInject is the injector's direct state-mutation
	// hypercall; like arbitrary_access it exists only in injector builds.
	// Where arbitrary_access covers memory-corruption erroneous states,
	// state_inject covers the remaining Table I classes (Section IV-A:
	// "different erroneous states may require different injection
	// approaches and locations").
	HypercallStateInject = 42
)

// hypercallOps maps each hypercall number to its ABI name, the
// telemetry label and span name, with its per-hypercall counter key
// built once.
var hypercallOps = map[int]telemetry.Op{
	HypercallMMUUpdate:       telemetry.NewOp("hypercall", "mmu_update"),
	HypercallMemoryOp:        telemetry.NewOp("hypercall", "memory_op"),
	HypercallConsoleIO:       telemetry.NewOp("hypercall", "console_io"),
	HypercallGrantTableOp:    telemetry.NewOp("hypercall", "grant_table_op"),
	HypercallMMUExtOp:        telemetry.NewOp("hypercall", "mmuext_op"),
	HypercallEventChannelOp:  telemetry.NewOp("hypercall", "event_channel_op"),
	HypercallDomctl:          telemetry.NewOp("hypercall", "domctl"),
	HypercallArbitraryAccess: telemetry.NewOp("hypercall", "arbitrary_access"),
	HypercallStateInject:     telemetry.NewOp("hypercall", "state_inject"),
}

// hypercallOp returns the hypercall's telemetry op. Unknown numbers
// fall back to the decimal form so experimental registrations still
// show up in metrics.
func hypercallOp(nr int) telemetry.Op {
	if op, ok := hypercallOps[nr]; ok {
		return op
	}
	return telemetry.NewOp("hypercall", fmt.Sprintf("nr_%d", nr))
}

// Hypercall is one dispatch-table entry. arg carries the per-call
// argument struct; handlers type-assert it.
type Hypercall func(d *Domain, arg any) error

// RegisterHypercall installs a handler at the given number, the hook the
// injector uses to add HYPERVISOR_arbitrary_access to the build ("small
// changes in the hypercalls table had to be done to add the new hypercall
// into the code base", Section V-B). It serves a freshly booted build
// only: a snapshot fork dispatches through its sealed build's table, so
// registering on a fork returns ErrInval and leaves that table as it is.
func (h *Hypervisor) RegisterHypercall(nr int, fn Hypercall) error {
	if h.snap != nil {
		return fmt.Errorf("%w: hypercall %d: a snapshot fork shares its build's table", ErrInval, nr)
	}
	if fn == nil {
		return fmt.Errorf("%w: nil hypercall handler", ErrInval)
	}
	if _, ok := h.hypercalls[nr]; ok {
		return fmt.Errorf("%w: hypercall %d already registered", ErrInval, nr)
	}
	h.hypercalls[nr] = fn
	return nil
}

// coreHypercalls is every build's standard dispatch table. Its handlers
// reach their hypervisor through the calling domain, so one table
// serves every build: New copies it, and a snapshot fork shares its
// prototype's copy.
var coreHypercalls = map[int]Hypercall{
	HypercallMMUUpdate: func(d *Domain, arg any) error {
		a, ok := arg.(*MMUUpdateArgs)
		if !ok {
			return fmt.Errorf("%w: mmu_update wants *MMUUpdateArgs, got %T", ErrInval, arg)
		}
		return d.hv.mmuUpdate(d, a)
	},
	HypercallMMUExtOp: func(d *Domain, arg any) error {
		a, ok := arg.(*MMUExtArgs)
		if !ok {
			return fmt.Errorf("%w: mmuext_op wants *MMUExtArgs, got %T", ErrInval, arg)
		}
		return d.hv.mmuExtOp(d, a)
	},
	HypercallMemoryOp: func(d *Domain, arg any) error {
		return d.hv.memoryOp(d, arg)
	},
	HypercallConsoleIO: func(d *Domain, arg any) error {
		s, ok := arg.(string)
		if !ok {
			return fmt.Errorf("%w: console_io wants string, got %T", ErrInval, arg)
		}
		d.hv.Logf("[%s] %s", d.Name(), s)
		return nil
	},
	HypercallGrantTableOp: func(d *Domain, arg any) error {
		return d.hv.grantTableOp(d, arg)
	},
	HypercallEventChannelOp: func(d *Domain, arg any) error {
		return d.hv.eventChannelOp(d, arg)
	},
	HypercallDomctl: func(d *Domain, arg any) error {
		a, ok := arg.(*DomctlArgs)
		if !ok {
			return fmt.Errorf("%w: domctl wants *DomctlArgs, got %T", ErrInval, arg)
		}
		return d.hv.domctl(d, a)
	},
}

// Hypercall is the guest-side entry point: dispatch through the build's
// table, exactly like the real syscall-style vector.
func (d *Domain) Hypercall(nr int, arg any) error {
	h := d.hv
	if h.crashed {
		return ErrCrashed
	}
	if d.destroyed {
		return ErrDomGone
	}
	if d.paused && nr != HypercallDomctl {
		return fmt.Errorf("%w: dom%d is paused", ErrInval, d.id)
	}
	fn, ok := h.hypercalls[nr]
	if !ok {
		return fmt.Errorf("%w: hypercall %d", ErrNoSys, nr)
	}
	// Each dispatched hypercall is one causal span. It opens before the
	// fault sites and closes on defer, so even an injected handler panic
	// unwinds through the End and never leaks an open span.
	if t := h.cfg.spans; t != nil {
		sp := t.Hypercall(hypercallOp(nr).Label)
		defer t.End(sp)
	}
	// The substrate fault plane fires at dispatch, before the handler:
	// an injected handler panic models a hypercall-handler bug taking
	// the campaign worker down (the Milenkoski-style untrusted-handler
	// threat turned against our own engine), a forced hang leaves the
	// build in the wedged state the monitor classifies, and a wedge
	// parks the goroutine until the injector is released.
	if flt := h.cfg.flt; flt != nil {
		if flt.Hit(faults.SiteHypercallPanic) {
			panic(fmt.Sprintf("faults: injected panic in hypercall %s handler (dom%d)", hypercallOp(nr).Label, d.id))
		}
		if flt.Hit(faults.SiteHang) && !h.hung {
			h.hung = true
			h.Logf("faults: injected hang state at hypercall %s dispatch", hypercallOp(nr).Label)
		}
		if flt.Hit(faults.SiteWedge) {
			flt.Block()
		}
	}
	if tel := h.cfg.tel; tel != nil {
		op := hypercallOp(nr)
		tel.HypercallEnter(uint16(d.id), int32(nr), op)
		err := fn(d, arg)
		tel.HypercallExit(uint16(d.id), int32(nr), op, err)
		return err
	}
	return fn(d, arg)
}
