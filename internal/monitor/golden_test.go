package monitor_test

// Golden tests for the monitor's Verdict evidence. The evidence lines
// are the human-auditable core of a Table III cell — the exact
// addresses, frames and transcripts the audit saw — and the machine
// layout is fully deterministic, so they can be pinned verbatim. A
// diff here means the audit now *sees* something different, which is
// either a real behaviour change (update the golden deliberately) or a
// regression in the walkers/oracles the monitor relies on.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/hv"
)

type goldenCell struct {
	version  hv.Version
	useCase  string
	violated bool // true = confirmed violation, false = handled
	evidence []string
}

func goldenCells() []goldenCell {
	return []goldenCell{
		// Confirmed violations: injection on the vulnerable 4.6 profile.
		{hv.Version46(), "XSA-212-crash", true, []string{
			"IDT #PF descriptor at 0xffff82d0800010e0 decodes invalid (corrupted): a9 2d 08 00 00 00 00 00",
			"hypervisor panic: FATAL TRAP: vector = 8 (double fault)",
		}},
		{hv.Version46(), "XSA-212-priv", true, []string{
			"target PUD[257] -> PMD 0xf8 -> PT 0xf7 -> payload frame 0x18: linkage verified by walk",
			"xen3: /tmp/injector_log = \"|uid=0(root) gid=0(root) groups=0(root)|@xen3\"",
			"guest01: /tmp/injector_log = \"|uid=0(root) gid=0(root) groups=0(root)|@guest01\"",
			"guest02: /tmp/injector_log = \"|uid=0(root) gid=0(root) groups=0(root)|@guest02\"",
			"guest03: /tmp/injector_log = \"|uid=0(root) gid=0(root) groups=0(root)|@guest03\"",
			"privilege escalation confirmed in all 4 domains",
		}},
		{hv.Version46(), "XSA-148-priv", true, []string{
			"guest L2 holds writable PSE superpage entry: 0x00000000000000a7 [P|RW|US|PSE]",
			"dom0 (xen3) served a root reverse shell",
		}},
		{hv.Version46(), "XSA-182-test", true, []string{
			"L4[42] is a writable self-reference: 0x0000000000132027 [P|RW|US]",
			"guest write access through self-mapping granted at 0x150a8542a150",
		}},
		// Handled cells: the 4.13 hardening absorbs the induced state
		// (the shield cells of Table III).
		{hv.Version413(), "XSA-212-priv", false, []string{
			"target PUD[257] -> PMD 0xf7 -> PT 0xf6 -> payload frame 0x18: linkage verified by walk",
			"xen3: no escalation evidence",
			"guest01: no escalation evidence",
			"guest02: no escalation evidence",
			"guest03: no escalation evidence",
		}},
		{hv.Version413(), "XSA-182-test", false, []string{
			"L4[42] is a writable self-reference: 0x0000000000131027 [P|RW|US]",
			"guest write through self-mapping refused: page fault: write of 0x150a8542a150 denied: hardened: guest write to l4 page-table frame 0x131 refused",
		}},
	}
}

func TestVerdictEvidenceGoldens(t *testing.T) {
	for _, g := range goldenCells() {
		g := g
		t.Run(g.version.Name+"/"+g.useCase, func(t *testing.T) {
			t.Parallel()
			res, err := (&campaign.Runner{Workers: 1}).RunContext(context.Background(), g.version, g.useCase, campaign.ModeInjection)
			if err != nil {
				t.Fatal(err)
			}
			v := res.Verdict
			if !v.ErroneousState {
				t.Error("erroneous state not induced")
			}
			if v.SecurityViolation != g.violated {
				t.Errorf("SecurityViolation = %v, want %v", v.SecurityViolation, g.violated)
			}
			if v.Handled != !g.violated {
				t.Errorf("Handled = %v, want %v", v.Handled, !g.violated)
			}
			if !reflect.DeepEqual(v.Evidence, g.evidence) {
				t.Errorf("evidence diverged from golden:\n got:\n  %q\n want:\n  %q", v.Evidence, g.evidence)
			}
		})
	}
}
