package ledger

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/tracediff"
)

// fmtCanonicalLine is the entry's canonical line as it was written with
// fmt, the format every committed record digest pins.
func fmtCanonicalLine(e *Entry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cell %s/%s/%s seed=%d spec=%s", e.Version, e.Scenario, e.Mode, e.Seed, e.SpecDigest)
	if e.Verdict != nil {
		mark := func(v bool) byte {
			if v {
				return '1'
			}
			return '0'
		}
		fmt.Fprintf(&b, " verdict=%c%c%c", mark(e.Verdict.ErroneousState), mark(e.Verdict.SecurityViolation), mark(e.Verdict.Handled))
		if e.Verdict.ScriptError != "" {
			fmt.Fprintf(&b, " script-err=%q", e.Verdict.ScriptError)
		}
	}
	if e.Equivalence != nil {
		cv := e.Equivalence
		fmt.Fprintf(&b, " equiv=%s/%s", cv.Tier, cv.Basis)
		if cv.RefVersion != "" {
			fmt.Fprintf(&b, "@%s", cv.RefVersion)
		}
		fmt.Fprintf(&b, ":%d/%d", cv.BaseEvents, cv.InjectionEvents)
	}
	if e.Coverage != nil {
		fmt.Fprintf(&b, " cov=%sx%d", e.Coverage.Digest, e.Coverage.Edges)
	}
	if e.SpanV != 0 {
		fmt.Fprintf(&b, " span_v=%d", e.SpanV)
	}
	if e.Profiled {
		fmt.Fprintf(&b, " effects=%d:%016x audit=%d:%016x",
			len(e.Effects), fnvString(fnvOffset, strings.Join(e.Effects, "\n")),
			len(e.StateAudit), fnvString(fnvOffset, strings.Join(e.StateAudit, "\n")))
	}
	if e.Error != nil {
		fmt.Fprintf(&b, " err=%s:%q", e.Error.Class, e.Error.Message)
	}
	return b.String()
}

// TestCanonicalLineFormat pins the canonical line to its fmt rendering
// on quoted, non-ASCII and control text, zero and negative fields, and
// empty, single and multi-line streams.
func TestCanonicalLineFormat(t *testing.T) {
	for _, tc := range []struct {
		e    Entry
		want string
	}{
		{Entry{}, "cell // seed=0 spec="},
		{Entry{Version: "4.6", Scenario: "XSA-148-priv", Mode: "injection", Seed: -7, SpecDigest: "0123456789abcdef",
			Verdict:     &VerdictRecord{ErroneousState: true, Handled: true, ScriptError: "PoC \"failed\": «é»\t\u2028"},
			Equivalence: &tracediff.CellVerdict{Tier: "equivalent", Basis: "state-audit", RefVersion: "4.6", BaseEvents: 0, InjectionEvents: 12},
			Coverage:    &CoverageRecord{Digest: "9f4b1e8b005694b1", Edges: 0},
			SpanV:       18446744073709551615,
			Profiled:    true,
			Effects:     []string{"scenario_step label=\"«mode»\"", ""},
			Error:       &campaign.CellError{Class: campaign.FailPanic, Message: "boom \"x\"\n"}},
			"cell 4.6/XSA-148-priv/injection seed=-7 spec=0123456789abcdef verdict=101 " +
				`script-err="PoC \"failed\": «é»\t\u2028" equiv=equivalent/state-audit@4.6:0/12 ` +
				"cov=9f4b1e8b005694b1x0 span_v=18446744073709551615 " +
				"effects=2:" + fmt.Sprintf("%016x", fnvString(fnvOffset, "scenario_step label=\"«mode»\"\n")) +
				" audit=0:" + fmt.Sprintf("%016x", fnvOffset) +
				` err=panic:"boom \"x\"\n"`},
		{Entry{Version: "4.13", Scenario: "s", Mode: "exploit", Profiled: true, StateAudit: []string{"a"}},
			"cell 4.13/s/exploit seed=0 spec= effects=0:" + fmt.Sprintf("%016x", fnvOffset) +
				" audit=1:" + fmt.Sprintf("%016x", fnvString(fnvOffset, "a"))},
	} {
		if got := string(tc.e.appendCanonicalLine(nil)); got != tc.want {
			t.Errorf("appendCanonicalLine =\n%s\nwant\n%s", got, tc.want)
		}
		if got := fmtCanonicalLine(&tc.e); got != tc.want {
			t.Errorf("fmt rendering =\n%s\nwant\n%s", got, tc.want)
		}
	}
}

// TestHex16 pins hex16 to fmt's %016x.
func TestHex16(t *testing.T) {
	for _, h := range []uint64{0, 1, 0xabc, fnvOffset, 1<<64 - 1} {
		if got, want := hex16(h), fmt.Sprintf("%016x", h); got != want {
			t.Errorf("hex16(%d) = %s, want %s", h, got, want)
		}
	}
}
