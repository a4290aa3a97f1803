// Acid: the Section III-C assessment — a transactional tenant database
// runs inside a guest while erroneous states are injected at the
// hypervisor level, and an ACID audit classifies the damage per
// corruption target. The table this prints is the kind of evidence a
// provider uses to decide which intrusion effects its stack must detect
// for business-critical tenants.
package main

import (
	"fmt"
	"log"

	"repro/internal/campaign"
	"repro/internal/hv"
	"repro/internal/txstore"
)

const (
	accounts = 8
	initial  = 1000
	total    = accounts * initial
)

func main() {
	log.SetFlags(0)
	fmt.Println("Tenant transactional store under hypervisor-level intrusion (Xen 4.13):")
	fmt.Println()
	fmt.Printf("%-24s %-10s %-30s %s\n", "corruption target", "detected", "classification", "audit detail")
	fmt.Println("--------------------------------------------------------------------------------------------")

	for _, target := range txstore.AllTargets() {
		env, recycle, err := campaign.NewForkedEnvironment(hv.Version413(), campaign.ModeInjection)
		if err != nil {
			log.Fatal(err)
		}
		store, err := txstore.New(env.Attacker, accounts, initial)
		if err != nil {
			log.Fatal(err)
		}
		// A healthy workload before the intrusion.
		for i := 0; i < 5; i++ {
			if err := store.Transfer(i%accounts, (i+1)%accounts, 50); err != nil {
				log.Fatal(err)
			}
		}
		if err := store.InjectCorruption(env.Injector, target); err != nil {
			log.Fatal(err)
		}
		report, err := store.Check(total)
		if err != nil {
			log.Fatal(err)
		}
		detected := "no"
		if report.ChecksumErrors > 0 || !report.MagicIntact || !report.JournalSane {
			detected = "yes"
		}
		fmt.Printf("%-24s %-10s %-30s %v\n", target, detected, report.Classify(), report)
		if !env.HV.Crashed() && !env.HV.Hung() {
			recycle()
		}
	}
	fmt.Println()
	fmt.Println("The forged-record row is the headline: hypervisor-level intrusions can")
	fmt.Println("violate a tenant's consistency invariants without tripping any of the")
	fmt.Println("application's own integrity checks — only injection campaigns expose it.")
}
