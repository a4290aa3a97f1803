// Package guest simulates the operating system running inside a domain:
// a kernel log, users, an in-memory filesystem, a small shell, direct
// (faultable) memory access for exploit code, the periodic vDSO call the
// XSA-148 backdoor hijacks, and the reverse-shell plumbing.
//
// A Kernel implements hv.GuestOS, so ring-0 payloads dispatched through
// the hypervisor's IDT can reach into every attached guest — which is
// exactly the cross-domain effect the XSA-212-priv experiment observes.
package guest

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cpu"
	"repro/internal/hv"
	"repro/internal/pagetable"
	"repro/internal/vnet"
)

// Well-known UIDs.
const (
	// UIDRoot is the superuser.
	UIDRoot = 0
	// UIDUser is the default unprivileged account ("xen").
	UIDUser = 1000
)

// Kernel errors.
var (
	// ErrNoFile is returned for absent paths.
	ErrNoFile = errors.New("guest: no such file or directory")
	// ErrDenied is returned for permission failures.
	ErrDenied = errors.New("guest: permission denied")
	// ErrOops is returned when a memory access faults and the kernel
	// survives by killing the access ("unable to handle page request").
	ErrOops = errors.New("guest: kernel oops")
)

// File is one filesystem entry.
type File struct {
	Content string
	UID     int
}

// Kernel is the simulated guest OS of one domain.
type Kernel struct {
	dom  *hv.Domain
	net  *vnet.Network
	addr string

	files map[string]File
	klog  []string
	ticks int

	// hung is set when a payload halts the kernel.
	hung bool

	// sealed is, on a fork, the sealed kernel the fork resets to.
	// filesShared marks files as the sealed kernel's map, which the
	// first WriteFile clones.
	sealed      *Kernel
	filesShared bool
}

// New boots a guest kernel in the domain, attaches it as the domain's OS
// and gives it a network identity.
func New(dom *hv.Domain, net *vnet.Network, addr string) *Kernel {
	k := &Kernel{
		dom:   dom,
		net:   net,
		addr:  addr,
		files: make(map[string]File),
	}
	k.files["/root/root_msg"] = File{Content: "Confidential content in root folder!", UID: UIDRoot}
	k.files["/etc/hostname"] = File{Content: dom.Name(), UID: UIDRoot}
	dom.AttachOS(k)
	k.Printk("Booting %s (dom%d), %d pages of memory", dom.Name(), dom.ID(), dom.Frames())
	return k
}

// ForkOnto clones the kernel onto a forked domain and network, and
// attaches the clone as the domain's OS. The fork shares what it has
// not written: the kernel log is clip-shared with the sealed original —
// appends reallocate — and the filesystem map is cloned on the first
// WriteFile. No boot Printk: the sealed log already carries it.
func (k *Kernel) ForkOnto(dom *hv.Domain, net *vnet.Network) *Kernel {
	nk := &Kernel{dom: dom, net: net, addr: k.addr, sealed: k}
	nk.Reset()
	return nk
}

// Reset returns a fork to its sealed kernel in place — log, files,
// clock and hang state — and re-attaches it as its domain's OS. Call it
// only on a kernel ForkOnto made.
func (k *Kernel) Reset() {
	s := k.sealed
	k.files, k.filesShared = s.files, true
	k.klog = s.klog[:len(s.klog):len(s.klog)]
	k.ticks, k.hung = s.ticks, s.hung
	k.dom.AttachOS(k)
}

// Domain returns the hosting domain.
func (k *Kernel) Domain() *hv.Domain { return k.dom }

// Addr returns the kernel's network address (IP).
func (k *Kernel) Addr() string { return k.addr }

// Hostname implements hv.GuestOS.
func (k *Kernel) Hostname() string { return k.dom.Name() }

// Hung reports whether a payload wedged the kernel.
func (k *Kernel) Hung() bool { return k.hung }

// Printk appends a kernel log line with a fake monotonic timestamp,
// formatted like the exploit transcripts in the paper.
func (k *Kernel) Printk(format string, args ...any) {
	k.ticks++
	k.klog = append(k.klog, fmt.Sprintf("[%5d.%04d] %s", 100+k.ticks/10, (k.ticks%10)*1000, fmt.Sprintf(format, args...)))
}

// Dmesg returns a copy of the kernel log.
func (k *Kernel) Dmesg() []string {
	out := make([]string, len(k.klog))
	copy(out, k.klog)
	return out
}

// DmesgContains reports whether any log line contains the substring.
func (k *Kernel) DmesgContains(sub string) bool {
	for _, l := range k.klog {
		if strings.Contains(l, sub) {
			return true
		}
	}
	return false
}

// Filesystem.

// WriteFile creates or replaces a file owned by uid.
func (k *Kernel) WriteFile(path, content string, uid int) error {
	if path == "" || !strings.HasPrefix(path, "/") {
		return fmt.Errorf("guest: bad path %q", path)
	}
	if existing, ok := k.files[path]; ok && existing.UID == UIDRoot && uid != UIDRoot {
		return fmt.Errorf("%w: %s is owned by root", ErrDenied, path)
	}
	if strings.HasPrefix(path, "/root/") && uid != UIDRoot {
		return fmt.Errorf("%w: %s", ErrDenied, path)
	}
	if k.filesShared {
		files := make(map[string]File, len(k.files)+1)
		for p, f := range k.files {
			files[p] = f
		}
		k.files, k.filesShared = files, false
	}
	k.files[path] = File{Content: content, UID: uid}
	return nil
}

// WriteFileAsRoot implements hv.GuestOS.
func (k *Kernel) WriteFileAsRoot(path, content string) error {
	return k.WriteFile(path, content, UIDRoot)
}

// ReadFile returns a file's content, enforcing that /root is private.
func (k *Kernel) ReadFile(path string, uid int) (string, error) {
	f, ok := k.files[path]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNoFile, path)
	}
	if strings.HasPrefix(path, "/root/") && uid != UIDRoot {
		return "", fmt.Errorf("%w: %s", ErrDenied, path)
	}
	return f.Content, nil
}

// Stat returns the file entry if present.
func (k *Kernel) Stat(path string) (File, bool) {
	f, ok := k.files[path]
	return f, ok
}

// List returns the paths under the given directory prefix, sorted.
func (k *Kernel) List(dir string) []string {
	if !strings.HasSuffix(dir, "/") {
		dir += "/"
	}
	var out []string
	for p := range k.files {
		if strings.HasPrefix(p, dir) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Direct guest memory access.

// Peek reads guest virtual memory with guest privilege; a translation
// fault is vectored through the hardware IDT (which is how a corrupted
// IDT turns an ordinary access into a hypervisor panic) and then
// surfaced as a kernel oops.
func (k *Kernel) Peek(va uint64, buf []byte) error {
	return k.access(va, buf, false)
}

// Poke writes guest virtual memory with guest privilege.
func (k *Kernel) Poke(va uint64, buf []byte) error {
	return k.access(va, buf, true)
}

// PokeU64 writes one little-endian word.
func (k *Kernel) PokeU64(va uint64, v uint64) error {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return k.Poke(va, b[:])
}

// PeekU64 reads one little-endian word.
func (k *Kernel) PeekU64(va uint64) (uint64, error) {
	var b [8]byte
	if err := k.Peek(va, b[:]); err != nil {
		return 0, err
	}
	var v uint64
	for i := range b {
		v |= uint64(b[i]) << (8 * i)
	}
	return v, nil
}

func (k *Kernel) access(va uint64, buf []byte, write bool) error {
	vcpu := k.dom.VCPU()
	var err error
	if write {
		err = vcpu.WriteVirt(va, buf, true)
	} else {
		err = vcpu.ReadVirt(va, buf, true)
	}
	if err == nil {
		return nil
	}
	var fault *pagetable.Fault
	if errors.As(err, &fault) {
		// Hardware delivers #PF through the IDT; if the descriptor has
		// been corrupted this is the moment the machine dies.
		if derr := vcpu.DeliverException(cpu.VectorPageFault); derr != nil {
			return derr
		}
		k.Printk("BUG: unable to handle page request at %#x", fault.VA)
		k.Printk("Oops: %s [#1] SMP", fault.Reason)
		return fmt.Errorf("%w: %v", ErrOops, fault)
	}
	return err
}

// FlushTLB drops the vCPU's cached translations, as the guest kernel's
// own flush (or an exploit's explicit invlpg loop) would.
func (k *Kernel) FlushTLB() { k.dom.FlushTLB() }

// TriggerPageFault forces a hardware page-fault delivery, as the
// XSA-212-crash use case does after corrupting the #PF descriptor.
func (k *Kernel) TriggerPageFault() error {
	// Touch an address that is guaranteed unmapped in guest space.
	var b [1]byte
	return k.access(0xdead000000000, b[:], false)
}

// TickVDSO models the periodic control-plane work every domain performs:
// a root-owned process calls into the vDSO page. After the XSA-148
// backdoor patches that page, this is the moment the reverse shell fires.
func (k *Kernel) TickVDSO() error {
	va := k.dom.PhysmapVA(hv.VDSOPFN) + hv.VDSOEntryOffset
	ctx := &procCtx{k: k, uid: UIDRoot, comm: "cron"}
	if err := k.dom.VCPU().ExecutePayloadAt(va, ctx, true); err != nil {
		k.Printk("vdso: call failed: %v", err)
		return err
	}
	return nil
}

// ExecAsRootProcess executes payload code at the virtual address in the
// context of a root-owned process of this kernel. Device models (which
// run as dom0 processes) use it when an emulated device's handler
// pointer is followed — the execution step of the VENOM-style attack.
func (k *Kernel) ExecAsRootProcess(va uint64, comm string) error {
	ctx := &procCtx{k: k, uid: UIDRoot, comm: comm}
	return k.dom.VCPU().ExecutePayloadAt(va, ctx, true)
}

// ReverseShellAsRoot implements hv.GuestOS: dial the address and serve a
// root shell over the connection.
func (k *Kernel) ReverseShellAsRoot(addr string) error {
	return k.reverseShell(addr, UIDRoot)
}

func (k *Kernel) reverseShell(addr string, uid int) error {
	if k.net == nil {
		return fmt.Errorf("guest: %s has no network", k.dom.Name())
	}
	conn, err := k.net.Dial(k.addr+":40000", addr)
	if err != nil {
		return err
	}
	conn.SetHandler(func(line string) string {
		out, eerr := k.Exec(line, uid)
		if eerr != nil {
			return eerr.Error()
		}
		return out
	})
	k.Printk("reverse shell connected to %s (uid %d)", addr, uid)
	return nil
}

// procCtx is payload execution in the context of one guest process.
type procCtx struct {
	k    *Kernel
	uid  int
	comm string
}

var _ cpu.ExecContext = (*procCtx)(nil)

func (p *procCtx) Logf(format string, args ...any) {
	p.k.Printk("%s[payload]: "+format, append([]any{p.comm}, args...)...)
}

// DropFileAllDomains at process level can only reach the local domain:
// cross-domain reach requires hypervisor privilege.
func (p *procCtx) DropFileAllDomains(path, tmpl string) error {
	content := strings.ReplaceAll(tmpl, "@HOST", "@"+p.k.Hostname())
	return p.k.WriteFile(path, content, p.uid)
}

func (p *procCtx) ReverseShell(addr string) error {
	return p.k.reverseShell(addr, p.uid)
}

func (p *procCtx) Escalate() {
	p.uid = UIDRoot
	p.k.Printk("%s: privilege escalated to uid 0", p.comm)
}

func (p *procCtx) ClockGettime() {
	p.k.ticks++
}

func (p *procCtx) Halt() {
	p.k.hung = true
	p.k.Printk("%s: kernel hang (tight loop)", p.comm)
}
