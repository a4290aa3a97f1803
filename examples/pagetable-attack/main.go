// Pagetable-attack: a side-by-side walkthrough of the XSA-148 use case
// in both modes. The original PoC exploits the missing L2 PSE check on
// Xen 4.6; the injection script induces the same guest-writable
// superpage entry on 4.13, where the vulnerability never existed. The
// example then audits the page-table state directly, showing what
// "injecting the same erroneous state" means at the PTE level.
package main

import (
	"fmt"
	"log"

	"repro/internal/campaign"
	"repro/internal/exploits"
	"repro/internal/hv"
	"repro/internal/monitor"
	"repro/internal/pagetable"
)

func runCase(v hv.Version, mode campaign.Mode) {
	e, err := campaign.NewEnvironment(v, mode)
	if err != nil {
		log.Fatal(err)
	}
	senv, err := e.ScenarioEnv(mode)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := exploits.SpecByName("XSA-148-priv")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== XSA-148-priv, %s mode, Xen %s ===\n", mode, v.Name)
	o := spec.Run(senv)
	for _, l := range o.Log {
		fmt.Println("  " + l)
	}
	if o.Err != nil {
		fmt.Printf("  [script stopped: %v]\n", o.Err)
	}

	// Audit the erroneous state at the page-table level.
	if o.Artifacts.WindowPTEAddr != 0 {
		entry, err := pagetable.ReadEntry(e.HV.Memory(),
			o.Artifacts.WindowPTEAddr.Frame(),
			int(o.Artifacts.WindowPTEAddr.Offset()/pagetable.EntrySize))
		if err == nil {
			fmt.Printf("  audit: guest L2 window entry = %v\n", entry)
			if entry.Present() && entry.Superpage() && entry.Writable() {
				fmt.Println("  audit: guest holds a writable 2 MiB window over machine memory")
			} else {
				fmt.Println("  audit: no superpage window present (validation rejected it)")
			}
		}
	}
	verdict := monitor.Assess(e.HV, e.Guests, o)
	fmt.Println("  " + verdict.String())
	fmt.Println()
}

func main() {
	log.SetFlags(0)
	// The vulnerable baseline: the PoC as published.
	runCase(hv.Version46(), campaign.ModeExploit)
	// The same PoC against the fixed validation: kernel exception.
	runCase(hv.Version413(), campaign.ModeExploit)
	// The injection script: same erroneous state on the fixed version,
	// and — because the vDSO is a data page that the 4.13 hardening does
	// not protect — the same privilege escalation (Table III row 3).
	runCase(hv.Version413(), campaign.ModeInjection)
}
