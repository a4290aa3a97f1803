// Quickstart: boot a hypervisor with the injector compiled in, create a
// guest, inject one memory-corruption erroneous state, and read the
// monitor's verdict. This is the minimal end-to-end tour of the public
// surface: hv (the system under test), inject (the contribution),
// exploits (the injection script), and monitor (the oracle).
package main

import (
	"fmt"
	"log"

	"repro/internal/campaign"
	"repro/internal/exploits"
	"repro/internal/hv"
	"repro/internal/monitor"
)

func main() {
	log.SetFlags(0)

	// 1. Build the standard experimental environment on a hardened
	// hypervisor (Xen 4.13 profile) with the injector hypercall added to
	// its dispatch table.
	env, err := campaign.NewEnvironment(hv.Version413(), campaign.ModeInjection)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("booted %s with %d domains; injector ready\n",
		env.HV.Version(), env.HV.Domains())

	// 2. Use the injector directly: read the IDT descriptor for the
	// page-fault vector through its linear address — something no guest
	// could do through legitimate interfaces.
	idt := env.HV.IDTR()
	val, err := env.Injector.ReadLinear64(idt.DescriptorAddr(14))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IDT #PF descriptor (low word) = %#x\n", val)

	// 3. Run a full injection script: the XSA-182 erroneous state
	// (writable recursive page-table mapping) on a version where the
	// vulnerability does not exist.
	spec, err := exploits.SpecByName("XSA-182-test")
	if err != nil {
		log.Fatal(err)
	}
	senv, err := env.ScenarioEnv(campaign.ModeInjection)
	if err != nil {
		log.Fatal(err)
	}
	outcome := spec.Run(senv)
	fmt.Println("\ninjection transcript:")
	for _, line := range outcome.Log {
		fmt.Println("  " + line)
	}

	// 4. Ask the monitor what actually happened.
	verdict := monitor.Assess(env.HV, env.Guests, outcome)
	fmt.Println("\nverdict:", verdict)
	for _, e := range verdict.Evidence {
		fmt.Println("  evidence:", e)
	}
	if verdict.Handled {
		fmt.Println("\nthe hardened version handled the injected state — the Table III shield")
	}
}
