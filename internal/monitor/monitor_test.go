package monitor_test

import (
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/exploits"
	"repro/internal/hv"
	"repro/internal/monitor"
	"repro/internal/pagetable"
)

// assess runs a scenario and returns the verdict plus environment.
func assess(t *testing.T, v hv.Version, useCase string, mode campaign.Mode) (*campaign.Environment, *monitor.Verdict) {
	t.Helper()
	e, err := campaign.NewEnvironment(v, mode)
	if err != nil {
		t.Fatal(err)
	}
	env, err := e.ScenarioEnv(mode)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := exploits.SpecByName(useCase)
	if err != nil {
		t.Fatal(err)
	}
	o := spec.Run(env)
	return e, monitor.Assess(e.HV, e.Guests, o)
}

func TestVerdictEvidenceIsSpecific(t *testing.T) {
	_, v := assess(t, hv.Version46(), "XSA-212-priv", campaign.ModeInjection)
	joined := strings.Join(v.Evidence, "\n")
	for _, want := range []string{"linkage verified by walk", "/tmp/injector_log", "privilege escalation confirmed"} {
		if !strings.Contains(joined, want) {
			t.Errorf("evidence missing %q:\n%s", want, joined)
		}
	}
}

func TestVerdictHandledFlag(t *testing.T) {
	// 4.13 handling of XSA-182-test: state induced, violation prevented.
	_, v := assess(t, hv.Version413(), "XSA-182-test", campaign.ModeInjection)
	if !v.ErroneousState || v.SecurityViolation {
		t.Fatalf("verdict = %+v", v)
	}
	if !v.Handled {
		t.Error("Handled flag not set for a tolerated state")
	}
	if !strings.Contains(v.String(), "handled by the system") {
		t.Errorf("String() = %q", v.String())
	}
	// A full violation is not "handled".
	_, v46 := assess(t, hv.Version46(), "XSA-182-test", campaign.ModeExploit)
	if v46.Handled {
		t.Error("Handled set on a successful violation")
	}
}

func TestAuditorDoesNotTrustScriptClaims(t *testing.T) {
	// Build an outcome that *claims* the erroneous state but never
	// touched the system: the auditor must reject the claim.
	e, err := campaign.NewEnvironment(hv.Version46(), campaign.ModeExploit)
	if err != nil {
		t.Fatal(err)
	}
	fake := &exploits.Outcome{
		UseCase:        "XSA-182-test",
		Mode:           "exploit",
		Version:        "4.6",
		ErroneousState: true, // a lie
	}
	fake.Artifacts.SelfMapSlot = 42
	// Point at the attacker's real L4, which holds no self-map.
	addr, aerr := pagetable.EntryAddr(e.Attacker.Domain().CR3(), 42)
	if aerr != nil {
		t.Fatal(aerr)
	}
	fake.Artifacts.SelfMapPTEAddr = addr
	v := monitor.Assess(e.HV, e.Guests, fake)
	if v.ErroneousState {
		t.Error("auditor believed an unbacked claim")
	}
	if v.SecurityViolation {
		t.Error("violation without state")
	}
}

func TestMissingArtifactsAreSafe(t *testing.T) {
	e, err := campaign.NewEnvironment(hv.Version46(), campaign.ModeExploit)
	if err != nil {
		t.Fatal(err)
	}
	for _, useCase := range []string{"XSA-212-crash", "XSA-212-priv", "XSA-148-priv", "XSA-182-test", "unknown"} {
		o := &exploits.Outcome{UseCase: useCase, Mode: "exploit", Version: "4.6"}
		v := monitor.Assess(e.HV, e.Guests, o)
		if v.ErroneousState || v.SecurityViolation {
			t.Errorf("%s: empty outcome assessed as %+v", useCase, v)
		}
	}
}

func TestCrashOracle(t *testing.T) {
	e, v := assess(t, hv.Version46(), "XSA-212-crash", campaign.ModeExploit)
	if !v.ErroneousState || !v.SecurityViolation {
		t.Fatalf("verdict = %+v", v)
	}
	if !e.HV.Crashed() {
		t.Fatal("hypervisor alive after crash case")
	}
	joined := strings.Join(v.Evidence, "\n")
	for _, want := range []string{"decodes invalid", "hypervisor panic"} {
		if !strings.Contains(joined, want) {
			t.Errorf("evidence missing %q:\n%s", want, joined)
		}
	}
}

func TestReverseShellOracleRequiresRootShell(t *testing.T) {
	// Without the attack, dom0 shows no reverse-shell evidence even if
	// asked to assess a fabricated 148 outcome with real window state.
	e, err := campaign.NewEnvironment(hv.Version46(), campaign.ModeExploit)
	if err != nil {
		t.Fatal(err)
	}
	o := &exploits.Outcome{UseCase: "XSA-148-priv", Mode: "exploit", Version: "4.6"}
	v := monitor.Assess(e.HV, e.Guests, o)
	if v.SecurityViolation {
		t.Error("violation without any shell")
	}
}
