package inject

import (
	"fmt"

	"repro/internal/hv"
	"repro/internal/mm"
)

// StateOp selects which erroneous state the state injector induces.
type StateOp uint8

// State-injection operations, each implementing one extension intrusion
// model (see ExtensionModels).
const (
	// OpKeepPageAccess leaves the calling domain holding a reference to
	// a hypervisor-owned page (XSA-387/393 class).
	OpKeepPageAccess StateOp = iota + 1
	// OpInterruptFlood marks pending events on a victim domain that
	// nothing ever sent.
	OpInterruptFlood
	// OpHangState wedges a CPU in a non-terminating handler.
	OpHangState
	// OpFatalException drives execution into an abort path.
	OpFatalException
	// OpDomainPause suspends a victim domain with no toolstack intent.
	OpDomainPause
	// OpZombieDomain destroys a victim domain and withholds the reap,
	// leaving its frames allocated to a domain that no longer exists.
	OpZombieDomain
)

// String returns the operation name.
func (o StateOp) String() string {
	switch o {
	case OpKeepPageAccess:
		return "KEEP_PAGE_ACCESS"
	case OpInterruptFlood:
		return "INTERRUPT_FLOOD"
	case OpHangState:
		return "HANG_STATE"
	case OpFatalException:
		return "FATAL_EXCEPTION"
	case OpDomainPause:
		return "DOMAIN_PAUSE"
	case OpZombieDomain:
		return "ZOMBIE_DOMAIN"
	default:
		return fmt.Sprintf("StateOp(%d)", uint8(o))
	}
}

// StateArgs is the state-injection hypercall argument.
type StateArgs struct {
	Op StateOp
	// Victim selects the target domain for OpInterruptFlood,
	// OpDomainPause and OpZombieDomain.
	Victim mm.DomID
	// Port and Count parameterize OpInterruptFlood.
	Port  int
	Count int
	// Site labels the abort location for OpFatalException.
	Site string

	// LeakedFrame receives the retained frame for OpKeepPageAccess.
	LeakedFrame mm.MFN
}

// EnableStateOps compiles the state injector into the build alongside
// (or independently of) the arbitrary-access injector. Like Enable, it
// takes a freshly booted build whose snapshot forks share the table.
func EnableStateOps(h *hv.Hypervisor) error {
	if err := h.RegisterHypercall(hv.HypercallStateInject, stateInjectHypercall); err != nil {
		return fmt.Errorf("inject: enabling state injector: %w", err)
	}
	h.Logf("state injector enabled (hypercall %d)", hv.HypercallStateInject)
	return nil
}

// stateInjectHypercall is the dispatch-table entry, run on the calling
// domain's hypervisor.
func stateInjectHypercall(d *hv.Domain, arg any) error {
	a, ok := arg.(*StateArgs)
	if !ok {
		return fmt.Errorf("%w: state_inject wants *StateArgs, got %T", hv.ErrInval, arg)
	}
	h := d.Hypervisor()
	h.Telemetry().InjectorOp(uint16(d.ID()), a.Op.String(), 0, a.Count)
	err := stateInject(h, d, a)
	if err == nil {
		// A successful state injection is the abstract machine's one
		// abusive-functionality edge, taken operationally.
		h.Telemetry().InjectorTransition(uint16(d.ID()), "initial", "erroneous", a.Op.String())
	}
	return err
}

func stateInject(h *hv.Hypervisor, d *hv.Domain, a *StateArgs) error {
	switch a.Op {
	case OpKeepPageAccess:
		mfn, err := h.InjectGrantStatusLeak(d)
		if err != nil {
			return err
		}
		a.LeakedFrame = mfn
		return nil
	case OpInterruptFlood:
		victim, err := h.Domain(a.Victim)
		if err != nil {
			return err
		}
		return h.InjectEventFlood(victim, a.Port, a.Count)
	case OpHangState:
		h.InjectHang(fmt.Sprintf("requested by dom%d", d.ID()))
		return nil
	case OpFatalException:
		site := a.Site
		if site == "" {
			site = "common/unreachable.c:42"
		}
		h.InjectFatalException(site)
		return nil
	case OpDomainPause:
		victim, err := h.Domain(a.Victim)
		if err != nil {
			return err
		}
		return h.InjectDomainPause(victim)
	case OpZombieDomain:
		victim, err := h.Domain(a.Victim)
		if err != nil {
			return err
		}
		return h.InjectZombie(victim)
	default:
		return fmt.Errorf("%w: state op %d", hv.ErrInval, a.Op)
	}
}

// StateClient wraps the state-injection hypercall for testing scripts.
type StateClient struct {
	d *hv.Domain
}

// NewStateClient returns a state injector client for the domain.
func NewStateClient(d *hv.Domain) *StateClient { return &StateClient{d: d} }

// KeepPageAccess induces the page-reference-retention state and returns
// the leaked frame.
func (c *StateClient) KeepPageAccess() (mm.MFN, error) {
	args := &StateArgs{Op: OpKeepPageAccess}
	if err := c.d.Hypercall(hv.HypercallStateInject, args); err != nil {
		return 0, err
	}
	return args.LeakedFrame, nil
}

// InterruptFlood marks count unsolicited pending events on the victim.
func (c *StateClient) InterruptFlood(victim mm.DomID, port, count int) error {
	return c.d.Hypercall(hv.HypercallStateInject, &StateArgs{
		Op: OpInterruptFlood, Victim: victim, Port: port, Count: count,
	})
}

// HangState wedges the hypervisor.
func (c *StateClient) HangState() error {
	return c.d.Hypercall(hv.HypercallStateInject, &StateArgs{Op: OpHangState})
}

// FatalException drives the hypervisor into an abort path.
func (c *StateClient) FatalException(site string) error {
	return c.d.Hypercall(hv.HypercallStateInject, &StateArgs{Op: OpFatalException, Site: site})
}

// PauseDomain suspends the victim with no toolstack intent.
func (c *StateClient) PauseDomain(victim mm.DomID) error {
	return c.d.Hypercall(hv.HypercallStateInject, &StateArgs{Op: OpDomainPause, Victim: victim})
}

// ZombieDomain destroys the victim and withholds the reap.
func (c *StateClient) ZombieDomain(victim mm.DomID) error {
	return c.d.Hypercall(hv.HypercallStateInject, &StateArgs{Op: OpZombieDomain, Victim: victim})
}
