package report

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/inject"
)

// Fig1 renders the chain of dependability threats with the extended-AVI
// model (Fig. 1): the conceptual backbone of Section III.
func Fig1() string {
	return strings.Join([]string{
		"FIG. 1: CHAIN OF DEPENDABILITY THREATS WITH THE EXTENDED-AVI MODEL",
		"",
		"  attack ---(exploits)---> vulnerability ===> intrusion",
		"   (malicious            (design/development/   |",
		"    external fault)       operation fault)      v",
		"                                          erroneous state ===> security",
		"                                          (intrusion-induced     violation",
		"                                           error)                (failure)",
		"",
		"  fault -----------------> error ------------------------------> failure",
		"",
		"An exploit activating a vulnerability causes an intrusion; its first",
		"effect is an erroneous state, which — unless the system handles it —",
		"leads to a failure affecting a security attribute.",
	}, "\n")
}

// Fig2 renders the methodology overview (Fig. 2): the traditional attack
// path above, the injection path below.
func Fig2() string {
	return strings.Join([]string{
		"FIG. 2: OVERVIEW OF THE METHODOLOGY KEY COMPONENTS",
		"",
		" traditional   +---------+   +---------------+    +-----------------+",
		" scenario      | exploit |-->| vulnerability |===>| erroneous state |--+",
		"               +---------+   +---------------+    +-----------------+  |",
		"                                                        ^              v",
		" intrusion     +-----------------+   +-----------+      |      +---------------+",
		" injection     | intrusion model |-->| intrusion |......+      |   security    |",
		" (this work)   +-----------------+   | injector  |             | violation OR  |",
		"                                     +-----------+             | state handled |",
		"                                                               +---------------+",
		"                                                   system monitoring decides",
		"",
		"The injector drives the system directly into the erroneous state the",
		"intrusion model describes, skipping the exploit/vulnerability pair.",
	}, "\n")
}

// Fig3 renders the intrusion state machines (Fig. 3) and the
// equivalence check between the internal and abstract views, executed
// live on the model types.
func Fig3(f inject.AbusiveFunctionality) string {
	internal := inject.InternalIntrusionMachine()
	abstract := inject.AbstractIntrusionMachine(f)

	var b strings.Builder
	b.WriteString("FIG. 3: INTRUSION INTERNAL IMPACT (left) AND ITS ABSTRACTION (right)\n\n")
	render := func(m *inject.StateMachine) {
		b.WriteString(fmt.Sprintf("  [%s view]\n", m.Name))
		for _, t := range m.Transitions {
			b.WriteString(fmt.Sprintf("    (%s) --%s--> (%s)\n", t.From, t.Label, t.To))
		}
	}
	render(internal)
	b.WriteString("\n")
	render(abstract)
	b.WriteString("\n")
	ok := inject.Equivalent(internal, abstract)
	_, pathI := internal.Reachable(inject.StateErroneous)
	_, pathA := abstract.Reachable(inject.StateErroneous)
	b.WriteString(fmt.Sprintf("  equivalence (both reach the erroneous state): %v\n", ok))
	b.WriteString(fmt.Sprintf("  internal witness: %s\n", strings.Join(pathI, " ; ")))
	b.WriteString(fmt.Sprintf("  abstract witness: %s\n", strings.Join(pathA, " ; ")))
	return b.String()
}

// Fig4 renders the RQ1 validation (Fig. 4): exploit vs injection on the
// vulnerable version with the compare step's results.
func Fig4(rows []campaign.Fig4Row) string {
	var b strings.Builder
	b.WriteString("FIG. 4: EXPERIMENTAL VALIDATION — EXPLOIT vs INJECTION ON XEN 4.6\n")
	b.WriteString(rule(84) + "\n")
	b.WriteString(fmt.Sprintf("%-16s | %-21s | %-21s | %-8s %-8s\n",
		"Use Case", "exploit (err/viol)", "injection (err/viol)", "states", "viols"))
	b.WriteString(rule(84) + "\n")
	for _, r := range rows {
		ev, iv := r.Exploit.Verdict, r.Injection.Verdict
		b.WriteString(fmt.Sprintf("%-16s | %-21s | %-21s | %-8s %-8s\n",
			r.UseCase,
			fmt.Sprintf("%s / %s", mark(ev.ErroneousState), mark(ev.SecurityViolation)),
			fmt.Sprintf("%s / %s", mark(iv.ErroneousState), mark(iv.SecurityViolation)),
			matchMark(r.StatesMatch), matchMark(r.ViolationsMatch)))
	}
	b.WriteString(rule(84) + "\n")
	b.WriteString("states/viols columns: does the injection reproduce the exploit's result?\n")
	return b.String()
}

func matchMark(ok bool) string {
	if ok {
		return "match"
	}
	return "DIFFER"
}

// Transcript renders one run's attacker terminal, hypervisor console
// tail, and verdict, in the style of the paper's Section VI listings.
func Transcript(res *campaign.RunResult) string {
	var b strings.Builder
	o := res.Outcome
	b.WriteString(fmt.Sprintf("=== %s (%s mode) on Xen %s ===\n", o.UseCase, o.Mode, o.Version))
	b.WriteString("--- attacker terminal ---\n")
	for _, l := range o.Log {
		b.WriteString("  " + l + "\n")
	}
	if o.Err != nil {
		b.WriteString(fmt.Sprintf("  [script terminated: %v]\n", o.Err))
	}
	if console := res.Console; len(console) > 0 {
		b.WriteString("--- hypervisor console (tail) ---\n")
		start := len(console) - 8
		if start < 0 {
			start = 0
		}
		for _, l := range console[start:] {
			b.WriteString("  " + l + "\n")
		}
	}
	b.WriteString("--- monitor verdict ---\n")
	b.WriteString("  " + res.Verdict.String() + "\n")
	for _, e := range res.Verdict.Evidence {
		b.WriteString("    " + e + "\n")
	}
	return b.String()
}
