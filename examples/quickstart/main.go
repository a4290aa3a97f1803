// Quickstart: fork a hypervisor with the injector compiled in, read
// through the injector, run one memory-corruption injection script as a
// campaign cell, and read the monitor's verdict. This is the minimal
// end-to-end tour of the public surface: hv (the system under test),
// inject (the contribution) and campaign (cells and their verdicts).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/campaign"
	"repro/internal/hv"
)

func main() {
	log.SetFlags(0)

	// 1. Fork the standard experimental environment on a hardened
	// hypervisor (Xen 4.13 profile) with the injector hypercall added to
	// its dispatch table, the way every campaign cell gets its own.
	env, recycle, err := campaign.NewForkedEnvironment(hv.Version413(), campaign.ModeInjection)
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
	recycle()
	fmt.Printf("IDT #PF descriptor (low word) = %#x\n", val)

	// 3. Run a full injection script as a campaign cell: the XSA-182
	// erroneous state (writable recursive page-table mapping) on a
	// version where the vulnerability does not exist.
	res, err := (&campaign.Runner{Workers: 1}).RunContext(context.Background(),
		hv.Version413(), "XSA-182-test", campaign.ModeInjection)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ninjection transcript:")
	for _, line := range res.Outcome.Log {
		fmt.Println("  " + line)
	}

	// 4. The monitor's verdict on what actually happened.
	fmt.Println("\nverdict:", res.Verdict)
	for _, e := range res.Verdict.Evidence {
		fmt.Println("  evidence:", e)
	}
	if res.Verdict.Handled {
		fmt.Println("\nthe hardened version handled the injected state — the Table III shield")
	}
}
