// Package inject implements the paper's primary contribution: the
// intrusion-injection framework for virtualized systems.
//
// Its three pieces map directly onto Section IV and V of the paper:
//
//   - The prototype injector (this file): a new hypercall,
//     HYPERVISOR_arbitrary_access(addr, buf, len, action), compiled into
//     the hypervisor build, that lets a guest kernel read or write n
//     bytes at an arbitrary linear or physical hypervisor address —
//     bypassing the restriction machinery that normally makes such
//     accesses impossible.
//   - Intrusion models (model.go): the abstraction that ties an
//     injectable erroneous state to a triggering source, a target
//     component, an interaction interface and an abusive functionality.
//   - Injection scripts (scripts.go): per-use-case drivers that induce
//     the same erroneous states as the public exploits, with the
//     vulnerability-dependent step replaced by the injector hypercall.
package inject

import (
	"fmt"

	"repro/internal/hv"
	"repro/internal/mm"
	"repro/internal/pagetable"
)

// Action selects the operation and address mode of an arbitrary access,
// mirroring the prototype's hypercall interface:
//
//	HYPERVISOR_arbitrary_access(unsigned long addr, void *buff,
//	                            unsigned long len, unsigned int action)
type Action uint8

// Actions. Linear addresses must already be mapped in the hypervisor
// (some privileged instructions, e.g. sidt, return linear addresses);
// physical addresses are mapped into the hypervisor address space before
// the access, the __copy_from_user/__copy_to_user path of the prototype.
const (
	// ReadLinear reads from an already-mapped hypervisor linear address.
	ReadLinear Action = iota + 1
	// WriteLinear writes to an already-mapped hypervisor linear address.
	WriteLinear
	// ReadPhys maps a machine-physical address and reads it.
	ReadPhys
	// WritePhys maps a machine-physical address and writes it.
	WritePhys
)

// String returns the script-facing constant name of the action.
func (a Action) String() string {
	switch a {
	case ReadLinear:
		return "ARBITRARY_READ_LINEAR"
	case WriteLinear:
		return "ARBITRARY_WRITE_LINEAR"
	case ReadPhys:
		return "ARBITRARY_READ_PHYS"
	case WritePhys:
		return "ARBITRARY_WRITE_PHYS"
	default:
		return fmt.Sprintf("Action(%d)", uint8(a))
	}
}

// AccessArgs is the hypercall argument structure.
type AccessArgs struct {
	Addr   uint64
	Buf    []byte
	Action Action
}

// Enable compiles the injector into a hypervisor build by adding the
// arbitrary_access hypercall to its dispatch table — the per-version
// "small changes in the hypercalls table" of Section V-B. The core of
// the injector is identical across versions. Enable a freshly booted
// build: its snapshot forks share the table, injector included.
func Enable(h *hv.Hypervisor) error {
	if err := h.RegisterHypercall(hv.HypercallArbitraryAccess, arbitraryAccessHypercall); err != nil {
		return fmt.Errorf("inject: enabling injector: %w", err)
	}
	h.Logf("intrusion injector enabled (hypercall %d)", hv.HypercallArbitraryAccess)
	return nil
}

// arbitraryAccessHypercall is the dispatch-table entry. It runs on the
// calling domain's hypervisor, so the one entry serves every fork of
// the build.
func arbitraryAccessHypercall(d *hv.Domain, arg any) error {
	a, ok := arg.(*AccessArgs)
	if !ok {
		return fmt.Errorf("%w: arbitrary_access wants *AccessArgs, got %T", hv.ErrInval, arg)
	}
	h := d.Hypervisor()
	h.Telemetry().InjectorOp(uint16(d.ID()), a.Action.String(), a.Addr, len(a.Buf))
	return arbitraryAccess(h, a)
}

// arbitraryAccess is the in-hypervisor implementation: deliberately free
// of the checks that protect these paths in normal operation.
func arbitraryAccess(h *hv.Hypervisor, a *AccessArgs) error {
	if len(a.Buf) == 0 {
		return fmt.Errorf("%w: empty buffer", hv.ErrInval)
	}
	switch a.Action {
	case ReadLinear:
		return h.ReadHV(a.Addr, a.Buf)
	case WriteLinear:
		return h.WriteHV(a.Addr, a.Buf)
	case ReadPhys:
		return h.Memory().ReadPhys(mm.PhysAddr(a.Addr), a.Buf)
	case WritePhys:
		return h.Memory().WritePhys(mm.PhysAddr(a.Addr), a.Buf)
	default:
		return fmt.Errorf("%w: action %d", hv.ErrInval, a.Action)
	}
}

// Client is the guest-side wrapper a tester links into the compromised
// guest's kernel: thin helpers over the raw hypercall.
type Client struct {
	d *hv.Domain
}

// NewClient returns an injector client issuing hypercalls from the
// domain.
func NewClient(d *hv.Domain) *Client { return &Client{d: d} }

// ArbitraryAccess issues the raw hypercall.
func (c *Client) ArbitraryAccess(addr uint64, buf []byte, action Action) error {
	return c.d.Hypercall(hv.HypercallArbitraryAccess, &AccessArgs{Addr: addr, Buf: buf, Action: action})
}

// WriteLinear64 stores an 8-byte value at a hypervisor linear address.
// Its signature matches the arbitrary-write primitive the exploit
// scenarios are parameterized over, so an injection script is the
// exploit script with this primitive swapped in.
func (c *Client) WriteLinear64(addr uint64, val uint64) error {
	var b [8]byte
	for i := range b {
		b[i] = byte(val >> (8 * i))
	}
	return c.ArbitraryAccess(addr, b[:], WriteLinear)
}

// ReadLinear64 loads an 8-byte value from a hypervisor linear address.
func (c *Client) ReadLinear64(addr uint64) (uint64, error) {
	var b [8]byte
	if err := c.ArbitraryAccess(addr, b[:], ReadLinear); err != nil {
		return 0, err
	}
	var v uint64
	for i := range b {
		v |= uint64(b[i]) << (8 * i)
	}
	return v, nil
}

// WritePTE stores a page-table entry at a machine-physical address,
// using physical mode — page tables are reached by machine address.
func (c *Client) WritePTE(ptr mm.PhysAddr, e pagetable.Entry) error {
	var b [8]byte
	v := uint64(e)
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return c.ArbitraryAccess(uint64(ptr), b[:], WritePhys)
}

// ReadPTE loads a page-table entry from a machine-physical address.
func (c *Client) ReadPTE(ptr mm.PhysAddr) (pagetable.Entry, error) {
	var b [8]byte
	if err := c.ArbitraryAccess(uint64(ptr), b[:], ReadPhys); err != nil {
		return 0, err
	}
	var v uint64
	for i := range b {
		v |= uint64(b[i]) << (8 * i)
	}
	return pagetable.Entry(v), nil
}

// Name identifies the primitive in experiment transcripts.
func (c *Client) Name() string { return "injection" }
