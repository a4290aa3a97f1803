package cpu

import (
	"errors"
	"fmt"

	"repro/internal/mm"
	"repro/internal/pagetable"
)

// AddressSpace resolves virtual addresses for a CPU. The hypervisor
// provides one per domain: hypervisor segments are resolved through the
// layout map and everything else through the domain's page tables, with
// guestInitiated selecting the privilege the access is checked against.
type AddressSpace interface {
	// Translate resolves va for one access of kind acc, returning the
	// machine-physical address. Accesses never cross page boundaries.
	Translate(va uint64, acc pagetable.Access, guestInitiated bool) (mm.PhysAddr, error)
}

// Platform is the set of hypervisor services exception delivery needs.
type Platform interface {
	// Crash records a fatal hypervisor failure; after it is called the
	// machine stops making progress.
	Crash(reason string)
	// Crashed reports whether the hypervisor has crashed.
	Crashed() bool
	// Builtin resolves a handler virtual address to a registered native
	// handler (the hypervisor's own trap handlers).
	Builtin(handlerVA uint64) (BuiltinHandler, bool)
	// Ring0Context returns the execution context payloads dispatched
	// through the hardware IDT run under: hypervisor privilege with
	// reach into every domain.
	Ring0Context() ExecContext
}

// BuiltinHandler is a native hypervisor trap handler.
type BuiltinHandler func(vector uint8) error

// ErrCrashed is returned by CPU operations once the hypervisor has died.
var ErrCrashed = errors.New("cpu: hypervisor has crashed")

// maxFaultNesting bounds exception-in-exception recursion: a fault while
// delivering the double fault is a triple fault.
const maxFaultNesting = 2

// payloadFetchLimit bounds how many bytes ExecutePayloadAt reads.
const payloadFetchLimit = 2048

// CPU is one simulated virtual CPU.
type CPU struct {
	id         int
	mem        *mm.Memory
	space      AddressSpace
	plat       Platform
	idtr       IDTR
	delivering int
}

// New creates a CPU over the machine, bound to an address space and the
// hypervisor platform services.
func New(id int, mem *mm.Memory, space AddressSpace, plat Platform) *CPU {
	return &CPU{id: id, mem: mem, space: space, plat: plat}
}

// ID returns the CPU number.
func (c *CPU) ID() int { return c.id }

// SIDT returns the IDT register, as the unprivileged sidt instruction
// does — this is how the XSA-212-crash exploit learns where the IDT
// lives.
func (c *CPU) SIDT() IDTR { return c.idtr }

// LIDT loads the IDT register. Only the hypervisor does this, at boot.
func (c *CPU) LIDT(r IDTR) { c.idtr = r }

// ReadVirt reads len(buf) bytes from virtual memory, translating page by
// page. guestInitiated selects the privilege of the access.
func (c *CPU) ReadVirt(va uint64, buf []byte, guestInitiated bool) error {
	return c.accessVirt(va, buf, pagetable.AccessRead, guestInitiated)
}

// WriteVirt writes buf to virtual memory.
func (c *CPU) WriteVirt(va uint64, buf []byte, guestInitiated bool) error {
	return c.accessVirt(va, buf, pagetable.AccessWrite, guestInitiated)
}

// ReadVirtU64 reads a 64-bit little-endian word from virtual memory.
func (c *CPU) ReadVirtU64(va uint64, guestInitiated bool) (uint64, error) {
	var b [8]byte
	if err := c.ReadVirt(va, b[:], guestInitiated); err != nil {
		return 0, err
	}
	return le64(b[:]), nil
}

// WriteVirtU64 writes a 64-bit little-endian word to virtual memory.
func (c *CPU) WriteVirtU64(va uint64, v uint64, guestInitiated bool) error {
	var b [8]byte
	putLE64(b[:], v)
	return c.WriteVirt(va, b[:], guestInitiated)
}

func (c *CPU) accessVirt(va uint64, buf []byte, acc pagetable.Access, guestInitiated bool) error {
	if c.plat != nil && c.plat.Crashed() {
		return ErrCrashed
	}
	done := 0
	for done < len(buf) {
		cur := va + uint64(done)
		phys, err := c.space.Translate(cur, acc, guestInitiated)
		if err != nil {
			return err
		}
		// Stay within the current page for this chunk.
		pageRemain := int(mm.PageSize - cur&mm.PageMask)
		n := len(buf) - done
		if n > pageRemain {
			n = pageRemain
		}
		if acc == pagetable.AccessWrite {
			err = c.mem.WritePhys(phys, buf[done:done+n])
		} else {
			err = c.mem.ReadPhys(phys, buf[done:done+n])
		}
		if err != nil {
			return err
		}
		done += n
	}
	return nil
}

// ExecutePayloadAt fetches payload bytes from virtual memory starting at
// va — the first page with execute permission, continuations with read —
// decodes them and runs the program against ctx. It is how both IDT-
// dispatched shellcode and the patched vDSO run.
func (c *CPU) ExecutePayloadAt(va uint64, ctx ExecContext, guestInitiated bool) error {
	if c.plat != nil && c.plat.Crashed() {
		return ErrCrashed
	}
	buf := make([]byte, 0, payloadFetchLimit)
	for len(buf) < payloadFetchLimit {
		cur := va + uint64(len(buf))
		acc := pagetable.AccessRead
		if len(buf) == 0 {
			acc = pagetable.AccessExec
		}
		phys, err := c.space.Translate(cur, acc, guestInitiated)
		if err != nil {
			if len(buf) == 0 {
				return fmt.Errorf("cpu: fetching payload at %#x: %w", va, err)
			}
			break // later pages unmapped: decode what we have
		}
		chunk := int(mm.PageSize - cur&mm.PageMask)
		if remain := payloadFetchLimit - len(buf); chunk > remain {
			chunk = remain
		}
		n := len(buf)
		buf = buf[:n+chunk]
		if err := c.mem.ReadPhys(phys, buf[n:]); err != nil {
			return err
		}
	}
	prog, err := Disassemble(buf)
	if err != nil {
		return fmt.Errorf("cpu: decoding payload at %#x: %w", va, err)
	}
	return Run(prog, ctx)
}

// DeliverException vectors an exception through the in-memory IDT, the
// way hardware would. A descriptor that cannot dispatch — not present,
// wrong type, or pointing at garbage — escalates to a double fault; a
// failure while delivering the double fault is a triple fault. Either
// way the hypervisor dies, which is exactly the XSA-212-crash security
// violation.
func (c *CPU) DeliverException(vector uint8) error {
	if c.plat.Crashed() {
		return ErrCrashed
	}
	c.delivering++
	defer func() { c.delivering-- }()
	if c.delivering > maxFaultNesting {
		c.plat.Crash(fmt.Sprintf("TRIPLE FAULT on CPU %d — system reset", c.id))
		return ErrCrashed
	}

	raw := make([]byte, DescriptorSize)
	// The IDT is hypervisor memory; descriptor fetch happens at
	// hypervisor privilege.
	if err := c.ReadVirt(c.idtr.DescriptorAddr(vector), raw, false); err != nil {
		return c.escalate(vector, fmt.Sprintf("IDT descriptor for vector %d unreadable: %v", vector, err))
	}
	gate, err := DecodeGate(raw)
	if err != nil {
		return c.escalate(vector, err.Error())
	}
	if !gate.Valid() {
		return c.escalate(vector, fmt.Sprintf("descriptor for vector %d not present/valid", vector))
	}
	if handler, ok := c.plat.Builtin(gate.Offset); ok {
		return handler(vector)
	}
	// A non-builtin handler address: jump there and try to execute it as
	// code, at hypervisor privilege (this is how injected IDT entries
	// give attackers ring-0 execution).
	if err := c.ExecutePayloadAt(gate.Offset, c.plat.Ring0Context(), false); err != nil {
		if errors.Is(err, ErrCrashed) {
			return err
		}
		return c.escalate(vector, fmt.Sprintf("handler at %#x is not executable code: %v", gate.Offset, err))
	}
	return nil
}

// escalate promotes a failed delivery to a double fault, or panics the
// hypervisor when the double fault itself cannot be delivered.
func (c *CPU) escalate(vector uint8, reason string) error {
	if vector == VectorDoubleFault {
		c.plat.Crash(fmt.Sprintf("FATAL TRAP: vector = 8 (double fault) on CPU %d: %s", c.id, reason))
		return ErrCrashed
	}
	return c.DeliverException(VectorDoubleFault)
}

// SoftwareInterrupt raises a software interrupt (int n), dispatching it
// through the IDT like an exception. Exploits use it to invoke handler
// entries they registered.
func (c *CPU) SoftwareInterrupt(vector uint8) error {
	return c.DeliverException(vector)
}
