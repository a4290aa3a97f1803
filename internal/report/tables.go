// Package report renders the paper's tables and figures as text, so the
// repro binary regenerates each artifact from live experiment results.
package report

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/fieldstudy"
	"repro/internal/inject"
)

// Marks used in rendered tables. The paper prints a checkmark for a
// correctly induced property and a shield for an erroneous state the
// system handled.
const (
	markYes    = "✓"          // ✓
	markShield = "\U0001F6E1" // 🛡
	markNo     = "-"
)

func rule(width int) string { return strings.Repeat("-", width) }

// TableI renders the abusive-functionality classification.
func TableI(t fieldstudy.TableI) string {
	var b strings.Builder
	b.WriteString("TABLE I: ABUSIVE FUNCTIONALITIES OBTAINED FROM ACTIVATING XEN VULNERABILITIES\n")
	b.WriteString(fmt.Sprintf("(%d CVEs classified, %d functionality assignments)\n", t.TotalCVEs, t.TotalAssignments))
	b.WriteString(rule(64) + "\n")
	for _, cs := range t.Classes {
		b.WriteString(fmt.Sprintf("%s – %d CVEs\n", cs.Class, cs.CVECount))
		for _, row := range cs.Rows {
			note := ""
			if row.Synthesized {
				note = " *"
			}
			b.WriteString(fmt.Sprintf("  %-46s %02d%s\n", row.Functionality, row.Assignments, note))
		}
		b.WriteString(rule(64) + "\n")
	}
	b.WriteString("* split not published in the paper; synthesized (class totals exact)\n")
	return b.String()
}

// TableII renders the use case -> abusive functionality mapping.
func TableII(models []inject.IntrusionModel) string {
	var b strings.Builder
	b.WriteString("TABLE II: USE CASES AND ABUSIVE FUNCTIONALITIES\n")
	b.WriteString(rule(64) + "\n")
	b.WriteString(fmt.Sprintf("%-16s %s\n", "Use Case", "Abusive Functionality"))
	b.WriteString(rule(64) + "\n")
	for _, m := range models {
		name := m.Functionality.String()
		// The paper's Table II abbreviates the two long names.
		switch m.Functionality {
		case inject.WriteArbitraryMemory:
			name = "Write Arbitrary Memory"
		case inject.GuestWritablePageTableEntry:
			name = "Write Page Table Entries"
		}
		b.WriteString(fmt.Sprintf("%-16s %s\n", m.Name, name))
	}
	b.WriteString(rule(64) + "\n")
	b.WriteString("Instantiation: an unprivileged guest VM using a hypercall against\n")
	b.WriteString("the memory management component of the virtualization layer.\n")
	return b.String()
}

// TableIII renders the injection-campaign results on the non-vulnerable
// versions, with the paper's checkmark/shield notation.
func TableIII(rows []campaign.Table3Row, versions []string) string {
	var b strings.Builder
	b.WriteString("TABLE III: INJECTION CAMPAIGN IN NON-VULNERABLE VERSIONS\n")
	b.WriteString("(✓ = property correctly induced; \U0001F6E1 = erroneous state handled by the system)\n")
	b.WriteString(rule(72) + "\n")
	b.WriteString(fmt.Sprintf("%-16s", "Use Case"))
	for _, v := range versions {
		b.WriteString(fmt.Sprintf(" | Xen %-5s Err.State Sec.Viol.", v))
	}
	b.WriteString("\n" + rule(72) + "\n")
	for _, r := range rows {
		b.WriteString(fmt.Sprintf("%-16s", r.UseCase))
		for _, v := range versions {
			cell := r.Cells[v]
			err := markNo
			if cell.ErrState {
				err = markYes
			}
			viol := markNo
			if cell.SecViol {
				viol = markYes
			} else if cell.ErrState {
				viol = markShield
			}
			b.WriteString(fmt.Sprintf(" |      %-6s %-9s %-9s", "", err, viol))
		}
		b.WriteString("\n")
	}
	b.WriteString(rule(72) + "\n")
	return b.String()
}

// Matrix renders the full campaign (all versions, modes and use cases),
// the superset view covering Sections VI and VII.
func Matrix(entries []campaign.MatrixEntry) string {
	var b strings.Builder
	// Rows run 63 to 122 bytes; 80 per row plus the six header and rule
	// lines covers the default matrix in one allocation.
	b.Grow(80 * (len(entries) + 6))
	b.WriteString("FULL CAMPAIGN MATRIX: version x use case x mode\n")
	b.WriteString(rule(78) + "\n")
	fmt.Fprintf(&b, "%-8s %-16s %-10s %-10s %-10s %s\n",
		"Version", "Use Case", "Mode", "Err.State", "Sec.Viol.", "Note")
	b.WriteString(rule(78) + "\n")
	for _, e := range entries {
		// Cells that failed under a ContinueOnError campaign carry an
		// error record instead of a result; render the classification
		// in place of the verdict marks.
		if e.Result == nil {
			note := "cell failed"
			if e.Err != nil {
				note = fmt.Sprintf("cell failed (%s): %s", e.Err.Class, firstLine(e.Err.Message))
			}
			fmt.Fprintf(&b, "%-8s %-16s %-10s %-10s %-10s %s\n",
				e.Version, e.UseCase, e.Mode, "-", "-", note)
			continue
		}
		v := e.Result.Verdict
		note := ""
		if v.Handled {
			note = "handled"
		}
		if e.Result.Outcome.Err != nil && !v.ErroneousState {
			note = "PoC failed: " + firstLine(e.Result.Outcome.Err.Error())
		}
		fmt.Fprintf(&b, "%-8s %-16s %-10s %-10s %-10s %s\n",
			e.Version, e.UseCase, e.Mode, mark(v.ErroneousState), mark(v.SecurityViolation), note)
	}
	b.WriteString(rule(78) + "\n")
	return b.String()
}

func mark(ok bool) string {
	if ok {
		return markYes
	}
	return markNo
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	if len(s) > 48 {
		return s[:48] + "..."
	}
	return s
}
