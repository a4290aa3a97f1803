// Command xsalab runs one of the original third-party PoCs against a
// chosen hypervisor version and prints the attacker terminal, hypervisor
// console and monitor verdict — the Section VI/VII experience.
//
// Usage:
//
//	xsalab -version 4.6 -case XSA-212-crash
//	xsalab -version 4.13 -case XSA-148-priv
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/campaign"
	"repro/internal/exploits"
	"repro/internal/hv"
	"repro/internal/monitor"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("xsalab: ")
	versionName := flag.String("version", "4.6", "hypervisor version (4.6, 4.8, 4.13)")
	useCase := flag.String("case", "XSA-212-crash", "use case ("+strings.Join(exploits.SpecNames(), ", ")+")")
	all := flag.Bool("all", false, fmt.Sprintf("run every use case on every version (%d transcripts)",
		len(exploits.Scenarios())*len(hv.Versions())))
	flag.Parse()

	if *all {
		for _, v := range hv.Versions() {
			for _, scen := range exploits.Scenarios() {
				runOne(v, scen)
			}
		}
		return
	}
	v, err := hv.VersionByName(*versionName)
	if err != nil {
		log.Fatal(err)
	}
	scen, err := exploits.ScenarioByName(*useCase)
	if err != nil {
		log.Fatal(err)
	}
	runOne(v, scen)
}

func runOne(v hv.Version, scen exploits.Scenario) {
	e, err := campaign.NewEnvironment(v, campaign.ModeExploit)
	if err != nil {
		log.Fatal(err)
	}
	env, err := e.ScenarioEnv(campaign.ModeExploit)
	if err != nil {
		log.Fatal(err)
	}
	outcome := scen.Run(env)
	verdict := monitor.Assess(e.HV, e.Guests, outcome)
	fmt.Print(report.Transcript(&campaign.RunResult{Outcome: outcome, Verdict: verdict}, e.HV.Console()))
	fmt.Println()
}
