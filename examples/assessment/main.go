// Assessment: the forward-looking uses of intrusion injection the paper
// sketches in Sections IV-C and IX —
//
//  1. the second injector covering non-memory intrusion models
//     (keep-page-access, interrupt floods, hang states, fatal
//     exceptions), and
//  2. the randomized ("fuzzing-like, post-attack") injection campaign,
//     compared against a hypercall-attack-injection baseline in the
//     style of the related work.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/campaign"
	"repro/internal/hv"
	"repro/internal/inject"
	"repro/internal/monitor"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)

	// --- Part 1: the state injector on a hardened build ---
	// Each extension model runs in its own fresh injection-mode
	// environment, so the hang and fatal states do not leak into the
	// next model; the health probe then reports what the state did.
	v := hv.Version413()
	models := inject.ExtensionModels()
	fmt.Printf("state injector on Xen %s — models: %d\n", v.Name, len(models))
	for _, m := range models {
		e, err := campaign.NewEnvironment(v, campaign.ModeInjection)
		if err != nil {
			log.Fatal(err)
		}
		injected, err := drive(e, m.Name)
		if err != nil {
			log.Fatalf("%s: %v", m.Name, err)
		}
		probe := strings.TrimSuffix(monitor.Probe(e.HV, e.Guests).Summary(), "\n")
		fmt.Printf("\n%s\n  erroneous state: %s\n  injected: %s\n  health probe:\n    %s\n",
			m, m.ErroneousState, injected, strings.ReplaceAll(probe, "\n", "\n    "))
	}

	// --- Part 2: randomized campaign vs hypercall-attack baseline ---
	fmt.Println()
	cmp, err := campaign.CompareWithBaseline(hv.Version413(), 60, 2023)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.BaselineComparison(cmp))
}

// drive induces one extension model's erroneous state through the
// environment's state injector and describes what it injected.
func drive(e *campaign.Environment, model string) (string, error) {
	sc := e.State
	switch model {
	case "grant-status-leak":
		leaked, err := sc.KeepPageAccess()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s retains hypervisor frame %#x", e.Attacker.Hostname(), uint64(leaked)), nil
	case "interrupt-flood":
		victim := e.Guests[1]
		if err := sc.InterruptFlood(victim.Domain().ID(), 0, 500); err != nil {
			return "", err
		}
		return fmt.Sprintf("500 unsolicited events pending on %s", victim.Hostname()), nil
	case "hang-state":
		if err := sc.HangState(); err != nil {
			return "", err
		}
		return "hypervisor wedged in a non-terminating handler", nil
	case "fatal-exception":
		if err := sc.FatalException("arch/x86/mm.c:1337"); err != nil {
			return "", err
		}
		return "fatal assertion reached", nil
	}
	return "", fmt.Errorf("no driver for extension model %q", model)
}
