package hv

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/mm"
)

// fakeOS is a minimal GuestOS for exercising ring-0 context edges.
type fakeOS struct {
	host     string
	files    map[string]string
	writeErr error
	shellErr error
	dialed   []string
}

func (f *fakeOS) Hostname() string { return f.host }
func (f *fakeOS) WriteFileAsRoot(path, content string) error {
	if f.writeErr != nil {
		return f.writeErr
	}
	if f.files == nil {
		f.files = make(map[string]string)
	}
	f.files[path] = content
	return nil
}
func (f *fakeOS) ReverseShellAsRoot(addr string) error {
	f.dialed = append(f.dialed, addr)
	return f.shellErr
}

var _ GuestOS = (*fakeOS)(nil)

func TestRing0DropFileAllDomains(t *testing.T) {
	h := bootVersion(t, Version46())
	d0 := mustDomain(t, h, "xen3", 64, true)
	g1 := mustDomain(t, h, "guest01", 64, false)
	g2 := mustDomain(t, h, "guest02", 64, false) // no OS attached: skipped
	os0 := &fakeOS{host: "xen3"}
	os1 := &fakeOS{host: "guest01"}
	d0.AttachOS(os0)
	g1.AttachOS(os1)
	_ = g2

	ctx := h.Ring0Context()
	if err := ctx.DropFileAllDomains("/tmp/x", "hello @HOST"); err != nil {
		t.Fatal(err)
	}
	if os0.files["/tmp/x"] != "hello @xen3" || os1.files["/tmp/x"] != "hello @guest01" {
		t.Errorf("files = %v / %v", os0.files, os1.files)
	}

	// A failing guest OS aborts the sweep with context.
	os1.writeErr = errors.New("disk full")
	err := ctx.DropFileAllDomains("/tmp/y", "z")
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("err = %v", err)
	}
}

func TestRing0ReverseShell(t *testing.T) {
	h := bootVersion(t, Version46())
	// Without a privileged domain carrying an OS, the op fails.
	if err := h.Ring0Context().ReverseShell("a:1"); err == nil {
		t.Error("reverse shell with no dom0 OS succeeded")
	}
	d0 := mustDomain(t, h, "xen3", 64, true)
	os0 := &fakeOS{host: "xen3"}
	d0.AttachOS(os0)
	if err := h.Ring0Context().ReverseShell("10.0.0.1:9"); err != nil {
		t.Fatal(err)
	}
	if len(os0.dialed) != 1 || os0.dialed[0] != "10.0.0.1:9" {
		t.Errorf("dialed = %v", os0.dialed)
	}
	os0.shellErr = errors.New("refused")
	if err := h.Ring0Context().ReverseShell("10.0.0.1:9"); err == nil {
		t.Error("shell error swallowed")
	}
}

func TestRing0MiscOps(t *testing.T) {
	h := bootVersion(t, Version46())
	ctx := h.Ring0Context()
	ctx.Logf("payload says %d", 42)
	if !h.ConsoleContains("payload says 42") {
		t.Error("ring0 log missing")
	}
	ctx.Escalate() // no-op at ring0, but logged
	if !h.ConsoleContains("already at hypervisor privilege") {
		t.Error("escalate log missing")
	}
	before := h.ClockTicks()
	ctx.ClockGettime()
	if h.ClockTicks() != before+1 {
		t.Error("clock not ticked")
	}
	if h.Hung() {
		t.Fatal("hung before halt")
	}
	ctx.Halt()
	if !h.Hung() {
		t.Error("halt did not hang the hypervisor")
	}
}

func TestVersionString(t *testing.T) {
	if got := Version46().String(); got != "Xen 4.6" {
		t.Errorf("String = %q", got)
	}
}

func newTestMem() (*mm.Memory, error) { return mm.NewMemory(testMachineFrames) }
