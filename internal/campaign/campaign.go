// Package campaign orchestrates the paper's experimental campaigns
// (Fig. 4): it builds a fresh, identical environment for every run —
// "the build and experimental environment are kept the same during all
// process ... the only difference was the Xen version" — executes a use
// case in exploit or injection mode, and has the monitor assess the
// outcome.
package campaign

import (
	"fmt"

	"repro/internal/exploits"
	"repro/internal/guest"
	"repro/internal/hv"
	"repro/internal/inject"
	"repro/internal/mm"
	"repro/internal/monitor"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/vnet"
)

// Fixed experimental-environment parameters.
const (
	// MachineFrames is the simulated machine size (2048 frames = 8 MiB).
	MachineFrames = 2048
	// DomainFrames is each domain's memory size.
	DomainFrames = 64
	// ListenerAddr is where the remote attacker host listens
	// (nc -l -vvv -p 1234).
	ListenerAddr = "10.3.1.100:1234"
	// AttackerIP is the compromised guest's address; the paper's
	// transcript shows the reverse connection arriving from 10.3.1.181.
	AttackerIP = "10.3.1.181"
)

// Mode selects which primitive drives a use case.
type Mode string

// Modes.
const (
	// ModeExploit runs the original PoC against the real vulnerability.
	ModeExploit Mode = "exploit"
	// ModeInjection runs the injection script on an injector build.
	ModeInjection Mode = "injection"
)

// Environment is one freshly built experimental setup: a hypervisor of
// the requested version, dom0 plus three guests with kernels, and the
// attacker's remote listener.
type Environment struct {
	HV       *hv.Hypervisor
	Net      *vnet.Network
	Dom0     *guest.Kernel
	Attacker *guest.Kernel
	Guests   []*guest.Kernel // dom0 first, then guest01..guest03
	Listener *vnet.Listener
	Injector *inject.Client      // nil on exploit-mode builds
	State    *inject.StateClient // nil on exploit-mode builds
	// Tel is the environment's telemetry recorder, nil when tracing is
	// disabled. The same recorder is installed on the hypervisor build,
	// so everything the environment does lands in one trace.
	Tel *telemetry.Recorder
}

// NewEnvironment boots the standard experimental environment. Injection
// mode compiles the injector hypercall into the build, as the prototype
// does per version.
func NewEnvironment(v hv.Version, mode Mode) (*Environment, error) {
	return newEnvironment(campaignPlan(), v, mode, nil, nil)
}

// newEnvironment boots an environment on a fresh machine from the
// precomputed campaign plan, so the version-independent pieces (IP
// plan, domain names) are laid out once per process instead of once per
// run. tel, when non-nil, is installed as the build's telemetry sink
// before boot; tree, when non-nil, is installed as the build's span tree
// so hypercall and mm-op spans nest under the cell's phases. A fresh
// cell boots this way under -no-snapshot, and each snapshot boots this
// way into the sinks whose contents its forks restore.
func newEnvironment(p *plan, v hv.Version, mode Mode, tel *telemetry.Recorder, tree *span.Tree) (*Environment, error) {
	mem, err := mm.NewMemory(MachineFrames)
	if err != nil {
		return nil, err
	}
	var opts []hv.Option
	if tel != nil {
		opts = append(opts, hv.WithTelemetry(tel))
	}
	if tree != nil {
		opts = append(opts, hv.WithSpans(tree))
	}
	h, err := hv.New(mem, v, opts...)
	if err != nil {
		return nil, err
	}
	e := &Environment{HV: h, Net: vnet.New(), Tel: tel}
	if mode == ModeInjection {
		if err := inject.Enable(h); err != nil {
			return nil, err
		}
		if err := inject.EnableStateOps(h); err != nil {
			return nil, err
		}
	}

	dom0, err := h.CreateDomain("xen3", DomainFrames, true)
	if err != nil {
		return nil, fmt.Errorf("campaign: creating dom0: %w", err)
	}
	e.Dom0 = guest.New(dom0, e.Net, "10.3.1.1")
	e.Guests = append(e.Guests, e.Dom0)

	for i, ip := range p.guestIPs {
		name := p.guestNames[i]
		d, err := h.CreateDomain(name, DomainFrames, false)
		if err != nil {
			return nil, fmt.Errorf("campaign: creating %s: %w", name, err)
		}
		k := guest.New(d, e.Net, ip)
		e.Guests = append(e.Guests, k)
	}
	e.Attacker = e.Guests[len(e.Guests)-1] // guest03, per the paper's transcript

	if e.Listener, err = e.Net.Listen(ListenerAddr); err != nil {
		return nil, err
	}
	if mode == ModeInjection {
		e.Injector = inject.NewClient(e.Attacker.Domain())
		e.State = inject.NewStateClient(e.Attacker.Domain())
	}
	return e, nil
}

// ScenarioEnv adapts the environment for the exploits package, selecting
// the primitive by mode.
func (e *Environment) ScenarioEnv(mode Mode) (*exploits.Env, error) {
	env := &exploits.Env{
		HV:           e.HV,
		Attacker:     e.Attacker,
		Dom0:         e.Dom0,
		Guests:       e.Guests,
		Net:          e.Net,
		Listener:     e.Listener,
		ListenerAddr: ListenerAddr,
	}
	switch mode {
	case ModeExploit:
		env.Prim = exploits.NewVulnPrimitive(e.Attacker)
	case ModeInjection:
		if e.Injector == nil || e.State == nil {
			return nil, fmt.Errorf("campaign: environment was not built with an injector")
		}
		env.Prim = e.Injector
		// Assigned only here: an exploit-mode Env must carry a nil State
		// interface, not a typed-nil client.
		env.State = e.State
	default:
		return nil, fmt.Errorf("campaign: unknown mode %q", mode)
	}
	return env, nil
}

// RunResult bundles a scenario transcript with the hypervisor console,
// the monitor's assessment and, under a Telemetry registry, the profile.
type RunResult struct {
	Outcome *exploits.Outcome
	Verdict *monitor.Verdict
	// Console is the cell's hypervisor console as the run left it.
	Console []string
	// Profile is the cell's telemetry snapshot, nil unless the Runner
	// has a Telemetry registry (an Observer gets it via CellSettled).
	Profile *telemetry.CellProfile
}
