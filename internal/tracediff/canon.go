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
	var buf [128]byte
	return string(e.appendText(buf[:0]))
}

// appendText appends the String rendering of the event to b. Quoted
// fields go through strconv.AppendQuote, which is what fmt's %q uses.
func (e Event) appendText(b []byte) []byte {
	b = append(b, e.Kind...)
	if e.Dom != 0 {
		b = append(b, " dom="...)
		b = strconv.AppendUint(b, uint64(e.Dom), 10)
	}
	if e.Nr != 0 {
		b = append(b, " nr="...)
		b = strconv.AppendInt(b, int64(e.Nr), 10)
	}
	if e.Addr != "0" {
		b = append(b, " addr="...)
		b = append(b, e.Addr...)
	}
	if e.Val != "0" {
		b = append(b, " val="...)
		b = append(b, e.Val...)
	}
	if e.Label != "" {
		b = append(b, " label="...)
		b = strconv.AppendQuote(b, e.Label)
	}
	if e.Detail != "" {
		b = append(b, " detail="...)
		b = strconv.AppendQuote(b, e.Detail)
	}
	if e.StateAudit {
		b = append(b, " [state-audit]"...)
	}
	return b
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

// normalizeText masks the run-identity tokens out of a label or detail
// string: the run's own version banner, the mode words, and every
// address-bearing hex literal (classified like numeric operands).
//
// The hex masking is two scans, each equivalent to one regexp pass
// (the reference passes live in the tests, which fuzz the scanners
// against them): first every 0x literal, `0x[0-9a-fA-F]+`, then every
// bare run of four or more hex digits standing as a whole word,
// `\b[0-9a-fA-F]{4,}\b`, over the first scan's output. A bare run
// is masked only when it holds a decimal digit, so hex-alphabet words
// like "dead" survive, and a literal too long for 64 bits stays as it
// is.
func (c *Canonicalizer) normalizeText(s string) string {
	if s == "" {
		return s
	}
	if c.version != "" {
		s = strings.ReplaceAll(s, c.version, placeholderVer)
	}
	s = strings.ReplaceAll(s, "injection", placeholderMode)
	s = strings.ReplaceAll(s, "exploit", placeholderMode)
	return c.maskBareHex(c.maskHexPrefixed(s))
}

// maskHexPrefixed classifies every leftmost-longest `0x[0-9a-fA-F]+`
// literal in s. It returns s itself when nothing changes.
func (c *Canonicalizer) maskHexPrefixed(s string) string {
	var b []byte
	done := 0 // s[:done] is already in b
	for i := 0; i+2 < len(s); {
		if s[i] != '0' || s[i+1] != 'x' || !isHex(s[i+2]) {
			i++
			continue
		}
		j := i + 3
		for j < len(s) && isHex(s[j]) {
			j++
		}
		if v, err := strconv.ParseUint(s[i+2:j], 16, 64); err == nil {
			b = append(append(b, s[done:i]...), c.classify(v)...)
			done = j
		}
		i = j
	}
	if b == nil {
		return s
	}
	return string(append(b, s[done:]...))
}

// maskBareHex classifies every word of s — a maximal run of ASCII
// [0-9A-Za-z_], so both its ends are `\b` boundaries — that is four or
// more hex digits long and holds a decimal digit. It returns s itself
// when nothing changes.
func (c *Canonicalizer) maskBareHex(s string) string {
	var b []byte
	done := 0
	for i := 0; i < len(s); {
		if !isWord(s[i]) {
			i++
			continue
		}
		j, hex, digit := i, true, false
		for ; j < len(s) && isWord(s[j]); j++ {
			hex = hex && isHex(s[j])
			digit = digit || s[j] >= '0' && s[j] <= '9'
		}
		if hex && digit && j-i >= 4 {
			if v, err := strconv.ParseUint(s[i:j], 16, 64); err == nil {
				b = append(append(b, s[done:i]...), c.classify(v)...)
				done = j
			}
		}
		i = j
	}
	if b == nil {
		return s
	}
	return string(append(b, s[done:]...))
}

func isHex(ch byte) bool {
	return ch >= '0' && ch <= '9' || ch >= 'a' && ch <= 'f' || ch >= 'A' && ch <= 'F'
}

// isWord is regexp's ASCII `\w`; every other byte, UTF-8 included,
// is a word boundary.
func isWord(ch byte) bool {
	return ch >= '0' && ch <= '9' || ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' || ch == '_'
}
