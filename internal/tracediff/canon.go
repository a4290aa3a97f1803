// Package tracediff is the trace-level RQ2 equivalence engine: it
// canonicalizes per-cell telemetry event streams and structurally
// compares an exploit run's trace against an injection run's trace, so
// the paper's central claim — that injected erroneous states are
// equivalent to exploit-induced ones — is checked at event granularity
// instead of only at verdict granularity.
//
// Canonicalization removes what legitimately varies between two
// equivalent runs: wall times are never in the event stream, sequence
// numbers are renumbered per compared stream, raw addresses are folded
// to symbolic roles via the version's memory layout, and run-identity
// tokens (the version banner, the words "exploit"/"injection") are
// masked. What remains is the run's structure: which steps executed,
// which state the audit attested, in which order.
package tracediff

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/hv"
	"repro/internal/layout"
	"repro/internal/mm"
	"repro/internal/telemetry"
)

// Event is one canonicalized trace event. String fields are fully
// normalized; comparing two Events for equality (ignoring Line) is the
// unit operation of the structural diff.
type Event struct {
	// Kind is the wire name of the event kind.
	Kind string
	// Dom is the acting domain (domain ids are deterministic).
	Dom uint16
	// Nr is the hypercall number for dispatcher events.
	Nr int32
	// Addr is the symbolic form of the address operand.
	Addr string
	// Val is the decimal value operand (lengths, levels, refs — all
	// run-independent enumerations).
	Val string
	// Label and Detail are the normalized text fields.
	Label, Detail string
	// StateAudit marks the monitor's affirmative erroneous-state
	// evidence (telemetry.EvidenceStateVal on the wire).
	StateAudit bool
	// Line is the 1-based JSONL source line for offline traces, 0 for
	// in-process events.
	Line int
}

// equal reports structural equality, ignoring provenance (Line).
func (e Event) equal(o Event) bool {
	return e.Kind == o.Kind && e.Dom == o.Dom && e.Nr == o.Nr &&
		e.Addr == o.Addr && e.Val == o.Val &&
		e.Label == o.Label && e.Detail == o.Detail &&
		e.StateAudit == o.StateAudit
}

// String renders the event compactly for divergence evidence.
func (e Event) String() string {
	var b strings.Builder
	b.WriteString(e.Kind)
	if e.Dom != 0 {
		fmt.Fprintf(&b, " dom=%d", e.Dom)
	}
	if e.Nr != 0 {
		fmt.Fprintf(&b, " nr=%d", e.Nr)
	}
	if e.Addr != "0" {
		fmt.Fprintf(&b, " addr=%s", e.Addr)
	}
	if e.Val != "0" {
		fmt.Fprintf(&b, " val=%s", e.Val)
	}
	if e.Label != "" {
		fmt.Fprintf(&b, " label=%q", e.Label)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " detail=%q", e.Detail)
	}
	if e.StateAudit {
		b.WriteString(" [state-audit]")
	}
	return b.String()
}

// Effect kinds: the events that express what a run *did to the system*
// (scenario transcript and monitor audit), as opposed to how the
// mechanism got there (hypercall traffic, frame validation churn). The
// injector reaches the erroneous state through a different mechanism
// than the exploit by design — §IV's point is precisely that the same
// state is reached without the vulnerability — so mechanism events are
// comparison noise while effect events must match.
const (
	kindScenarioStep    = "scenario_step"
	kindVerdictEvidence = "verdict_evidence"
)

// isEffect reports whether the canonical event belongs to the effect
// stream.
func (e Event) isEffect() bool {
	return e.Kind == kindScenarioStep || e.Kind == kindVerdictEvidence
}

// Canonicalizer folds one run's events into canonical form. It is bound
// to the run's version profile (for the memory-layout role lookup and
// the version-banner masking); build one per compared run.
type Canonicalizer struct {
	version       string
	roles         *layout.Map
	machineFrames uint64
	machineBytes  uint64
}

// Placeholders canonical text uses for masked run-identity tokens.
const (
	placeholderVer  = "«ver»"
	placeholderMode = "«mode»"
)

// NewCanonicalizer builds a canonicalizer for a run of the named
// version on a machine of machineFrames frames. An unknown version
// still canonicalizes (hex classification falls back to frame/phys/
// addr classes without symbolic roles), so offline traces from foreign
// builds remain diffable.
func NewCanonicalizer(version string, machineFrames uint64) *Canonicalizer {
	c := &Canonicalizer{
		version:       version,
		machineFrames: machineFrames,
		machineBytes:  machineFrames * mm.PageSize,
	}
	if v, err := hv.VersionByName(version); err == nil {
		// RoleLayout cannot fail for a known profile on a positive-size
		// machine; a failure just means no symbolic roles.
		if m, err := hv.RoleLayout(v, c.machineBytes); err == nil {
			c.roles = m
		}
	}
	return c
}

// Events canonicalizes a recorded in-process event slice, renumbering
// implicitly by order.
func (c *Canonicalizer) Events(evs []telemetry.Event) []Event {
	out := make([]Event, 0, len(evs))
	for i := range evs {
		out = append(out, c.event(&evs[i]))
	}
	return out
}

// event canonicalizes one recorded in-process event.
func (c *Canonicalizer) event(e *telemetry.Event) Event {
	return c.canon(e.Kind.String(), e.Dom, e.Nr, e.Addr, e.Val, e.Label, e.Detail, 0)
}

// Records canonicalizes JSONL trace records, skipping cell_end summary
// records (wall times and counters are not part of the event stream).
func (c *Canonicalizer) Records(recs []telemetry.TraceRecord) []Event {
	out := make([]Event, 0, len(recs))
	for i := range recs {
		r := &recs[i]
		if r.Kind == telemetry.CellEndKind {
			continue
		}
		out = append(out, c.canon(r.Kind, r.Dom, r.Nr, r.Addr, r.Val, r.Label, r.Detail, r.Line))
	}
	return out
}

func (c *Canonicalizer) canon(kind string, dom uint16, nr int32, addr, val uint64, label, detail string, line int) Event {
	return Event{
		Kind:       kind,
		Dom:        dom,
		Nr:         nr,
		Addr:       c.classify(addr),
		Val:        strconv.FormatUint(val, 10),
		Label:      c.normalizeText(label),
		Detail:     c.normalizeText(detail),
		StateAudit: kind == kindVerdictEvidence && val == telemetry.EvidenceStateVal,
		Line:       line,
	}
}

// classify folds a numeric operand to its symbolic class: a named
// layout segment for hypervisor virtual addresses, «frame» for machine
// frame numbers, «phys» for machine-physical byte addresses, «addr»
// for anything else. Zero stays zero — it means "no operand".
func (c *Canonicalizer) classify(v uint64) string {
	switch {
	case v == 0:
		return "0"
	case c.roles != nil:
		if name, ok := c.roles.Role(v); ok {
			return "«seg:" + name + "»"
		}
	}
	switch {
	case v < c.machineFrames:
		return "«frame»"
	case v < c.machineBytes:
		return "«phys»"
	default:
		return "«addr»"
	}
}

// hexPrefixed matches 0x literals; bareHex matches unprefixed runs of
// four or more hex digits (checked for at least one decimal digit
// before replacing, so hex-alphabet words like "dead" survive).
var (
	hexPrefixed = regexp.MustCompile(`0x[0-9a-fA-F]+`)
	bareHex     = regexp.MustCompile(`\b[0-9a-fA-F]{4,}\b`)
)

// normalizeText masks the run-identity tokens out of a label or detail
// string: the run's own version banner, the mode words, and every
// address-bearing hex literal (classified like numeric operands).
func (c *Canonicalizer) normalizeText(s string) string {
	if s == "" {
		return s
	}
	if c.version != "" {
		s = strings.ReplaceAll(s, c.version, placeholderVer)
	}
	s = strings.ReplaceAll(s, "injection", placeholderMode)
	s = strings.ReplaceAll(s, "exploit", placeholderMode)
	s = hexPrefixed.ReplaceAllStringFunc(s, func(tok string) string {
		v, err := strconv.ParseUint(tok[2:], 16, 64)
		if err != nil {
			return tok
		}
		return c.classify(v)
	})
	s = bareHex.ReplaceAllStringFunc(s, func(tok string) string {
		if !strings.ContainsAny(tok, "0123456789") {
			return tok
		}
		v, err := strconv.ParseUint(tok, 16, 64)
		if err != nil {
			return tok
		}
		return c.classify(v)
	})
	return s
}
