package inject

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/hv"
	"repro/internal/mm"
)

func newStateEnv(t *testing.T, v hv.Version) (*hv.Hypervisor, *hv.Domain, *hv.Domain, *StateClient) {
	t.Helper()
	mem, err := mm.NewMemory(2048)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hv.New(mem, v)
	if err != nil {
		t.Fatal(err)
	}
	if err := EnableStateOps(h); err != nil {
		t.Fatal(err)
	}
	attacker, err := h.CreateDomain("guest01", 64, false)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := h.CreateDomain("guest02", 64, false)
	if err != nil {
		t.Fatal(err)
	}
	return h, attacker, victim, NewStateClient(attacker)
}

func TestKeepPageAccessInjection(t *testing.T) {
	// The point of the state injector: induce the XSA-387-class state on
	// a version whose grant code does NOT leak.
	h, attacker, _, c := newStateEnv(t, hv.Version413())
	leaked, err := c.KeepPageAccess()
	if err != nil {
		t.Fatalf("KeepPageAccess: %v", err)
	}
	pi, err := h.Memory().Info(leaked)
	if err != nil {
		t.Fatal(err)
	}
	if pi.Owner != mm.DomXen || pi.RefCount == 0 {
		t.Errorf("leaked frame: owner dom%d refs %d, want DomXen-owned with refs", pi.Owner, pi.RefCount)
	}
	// The state is auditable through the same surface the grant-leak
	// vulnerability would leave behind.
	found := false
	for _, f := range attacker.GrantStatusFrames() {
		if f == leaked {
			found = true
		}
	}
	if !found {
		t.Error("leaked frame not visible in the domain's status-frame audit")
	}
	// The frame cannot be freed while the reference is retained: the
	// erroneous state is load-bearing, not cosmetic.
	if err := h.Memory().Free(leaked); !errors.Is(err, mm.ErrFrameBusy) {
		t.Errorf("freeing leaked frame: err = %v, want ErrFrameBusy", err)
	}
}

func TestInterruptFloodInjection(t *testing.T) {
	_, _, victim, c := newStateEnv(t, hv.Version413())
	if victim.PendingEvents() != 0 {
		t.Fatal("victim has pending events before injection")
	}
	if err := c.InterruptFlood(victim.ID(), 3, 500); err != nil {
		t.Fatalf("InterruptFlood: %v", err)
	}
	if got := victim.PendingEvents(); got != 500 {
		t.Errorf("pending = %d, want 500", got)
	}
	// Bad parameters are rejected.
	if err := c.InterruptFlood(victim.ID(), -1, 5); !errors.Is(err, hv.ErrInval) {
		t.Errorf("bad port: err = %v", err)
	}
	if err := c.InterruptFlood(victim.ID(), 0, 0); !errors.Is(err, hv.ErrInval) {
		t.Errorf("zero count: err = %v", err)
	}
	if err := c.InterruptFlood(999, 0, 5); !errors.Is(err, hv.ErrDomGone) {
		t.Errorf("missing victim: err = %v", err)
	}
}

func TestHangStateInjection(t *testing.T) {
	h, _, _, c := newStateEnv(t, hv.Version48())
	if h.Hung() {
		t.Fatal("hung before injection")
	}
	if err := c.HangState(); err != nil {
		t.Fatalf("HangState: %v", err)
	}
	if !h.Hung() {
		t.Error("hypervisor not hung")
	}
	if !h.ConsoleContains("injected hang state") {
		t.Error("hang not logged")
	}
	// Memory contents survive a hang (unlike a crash).
	if h.Crashed() {
		t.Error("hang crashed the hypervisor")
	}
}

func TestFatalExceptionInjection(t *testing.T) {
	h, _, _, c := newStateEnv(t, hv.Version48())
	err := c.FatalException("arch/x86/mm.c:1337")
	if err != nil {
		t.Fatalf("FatalException: %v", err)
	}
	if !h.Crashed() {
		t.Fatal("no crash")
	}
	if !strings.Contains(h.CrashReason(), "arch/x86/mm.c:1337") {
		t.Errorf("crash reason = %q", h.CrashReason())
	}
	// Everything after the fatal exception fails, including the injector.
	if err := c.HangState(); !errors.Is(err, hv.ErrCrashed) {
		t.Errorf("post-crash injection: err = %v", err)
	}
}

func TestStateInjectValidation(t *testing.T) {
	_, attacker, _, _ := newStateEnv(t, hv.Version48())
	if err := attacker.Hypercall(hv.HypercallStateInject, "nope"); !errors.Is(err, hv.ErrInval) {
		t.Errorf("bad arg type: err = %v", err)
	}
	if err := attacker.Hypercall(hv.HypercallStateInject, &StateArgs{Op: StateOp(99)}); !errors.Is(err, hv.ErrInval) {
		t.Errorf("bad op: err = %v", err)
	}
}

func TestStateOpStrings(t *testing.T) {
	for op, want := range map[StateOp]string{
		OpKeepPageAccess: "KEEP_PAGE_ACCESS",
		OpInterruptFlood: "INTERRUPT_FLOOD",
		OpHangState:      "HANG_STATE",
		OpFatalException: "FATAL_EXCEPTION",
	} {
		if op.String() != want {
			t.Errorf("%d = %q, want %q", op, op.String(), want)
		}
	}
	if !strings.HasPrefix(StateOp(77).String(), "StateOp(") {
		t.Error("unknown op string")
	}
}

func TestBothInjectorsCoexist(t *testing.T) {
	mem, err := mm.NewMemory(2048)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hv.New(mem, hv.Version413())
	if err != nil {
		t.Fatal(err)
	}
	if err := Enable(h); err != nil {
		t.Fatal(err)
	}
	if err := EnableStateOps(h); err != nil {
		t.Fatal(err)
	}
	d, err := h.CreateDomain("guest01", 64, false)
	if err != nil {
		t.Fatal(err)
	}
	mc := NewClient(d)
	sc := NewStateClient(d)
	if _, err := mc.ReadLinear64(h.IDTR().Base); err != nil {
		t.Errorf("memory injector: %v", err)
	}
	if _, err := sc.KeepPageAccess(); err != nil {
		t.Errorf("state injector: %v", err)
	}
}

// TestKeepPageAccessEquivalence is RQ1 in miniature for the extension
// model: the erroneous state reached by exploiting the leaky grant
// downgrade (on the vulnerable version) and the one induced by the state
// injector (on the fixed version) are the same auditable condition — a
// hypervisor-owned frame the domain still references.
func TestKeepPageAccessEquivalence(t *testing.T) {
	characterize := func(h *hv.Hypervisor, d *hv.Domain) (int, bool) {
		frames := d.GrantStatusFrames()
		allReferenced := len(frames) > 0
		for _, f := range frames {
			pi, err := h.Memory().Info(f)
			if err != nil || pi.Owner != mm.DomXen || pi.RefCount == 0 {
				allReferenced = false
			}
		}
		return len(frames), allReferenced
	}

	// Exploit route: leaky downgrade on 4.6.
	memA, err := mm.NewMemory(2048)
	if err != nil {
		t.Fatal(err)
	}
	hA, err := hv.New(memA, hv.Version46())
	if err != nil {
		t.Fatal(err)
	}
	dA, err := hA.CreateDomain("guest01", 64, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := dA.Hypercall(hv.HypercallGrantTableOp, &hv.GrantSetVersionArgs{Version: 2}); err != nil {
		t.Fatal(err)
	}
	if err := dA.Hypercall(hv.HypercallGrantTableOp, &hv.GrantSetVersionArgs{Version: 1}); err != nil {
		t.Fatal(err)
	}
	nA, okA := characterize(hA, dA)

	// Injection route: state injector on 4.13 (no leak in the grant code).
	_, dB, _, sc := newStateEnv(t, hv.Version413())
	if _, err := sc.KeepPageAccess(); err != nil {
		t.Fatal(err)
	}
	hB := dB.Hypervisor()
	nB, okB := characterize(hB, dB)

	if nA != nB || okA != okB || !okA {
		t.Errorf("states differ: exploit (%d frames, referenced=%v) vs injection (%d, %v)",
			nA, okA, nB, okB)
	}
}
