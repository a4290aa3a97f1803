package tracediff

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/hv"
	"repro/internal/telemetry"
)

// The regexp passes normalizeText's scanners replace, kept as the
// reference the fuzz target holds them to.
var (
	refHexPrefixed = regexp.MustCompile(`0x[0-9a-fA-F]+`)
	refBareHex     = regexp.MustCompile(`\b[0-9a-fA-F]{4,}\b`)
)

// referenceNormalize is normalizeText as five regexp and replace
// passes.
func referenceNormalize(c *Canonicalizer, s string) string {
	if s == "" {
		return s
	}
	if c.version != "" {
		s = strings.ReplaceAll(s, c.version, placeholderVer)
	}
	s = strings.ReplaceAll(s, "injection", placeholderMode)
	s = strings.ReplaceAll(s, "exploit", placeholderMode)
	s = refHexPrefixed.ReplaceAllStringFunc(s, func(tok string) string {
		v, err := strconv.ParseUint(tok[2:], 16, 64)
		if err != nil {
			return tok
		}
		return c.classify(v)
	})
	return refBareHex.ReplaceAllStringFunc(s, func(tok string) string {
		if !strings.ContainsAny(tok, "0123456789") {
			return tok
		}
		v, err := strconv.ParseUint(tok, 16, 64)
		if err != nil {
			return tok
		}
		return c.classify(v)
	})
}

// fuzzCanonicalizers are one canonicalizer per known version plus one
// for a foreign build, which classifies without symbolic roles.
func fuzzCanonicalizers() []*Canonicalizer {
	var cs []*Canonicalizer
	for _, v := range hv.Versions() {
		cs = append(cs, NewCanonicalizer(v.Name, campaign.MachineFrames))
	}
	return append(cs, NewCanonicalizer("", campaign.MachineFrames))
}

// textSink collects the distinct labels and details of every settled
// cell's telemetry profile.
type textSink struct {
	mu   sync.Mutex
	seen map[string]bool
}

func (s *textSink) CellFinished(_ string, _ time.Duration, p *telemetry.CellProfile, _ *campaign.CellError) {
	if p == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range p.Events {
		s.seen[e.Label] = true
		s.seen[e.Detail] = true
	}
}

// FuzzNormalizeText holds the scanners of normalizeText to the regexp
// passes they replace. The seed corpus is every label and detail a
// profiled full matrix emits plus the edge cases of the two patterns.
func FuzzNormalizeText(f *testing.F) {
	sink := &textSink{seen: make(map[string]bool)}
	r := &campaign.Runner{Workers: 4, Telemetry: telemetry.NewRegistry(), Progress: sink}
	if _, err := r.RunMatrixContext(context.Background()); err != nil {
		f.Fatalf("RunMatrixContext: %v", err)
	}
	if len(sink.seen) < 50 {
		f.Fatalf("profiled matrix yielded %d distinct texts; the corpus is not the matrix's", len(sink.seen))
	}
	for s := range sink.seen {
		f.Add(s)
	}
	for _, s := range []string{
		"0x",
		"0x0x5",
		"10x5 00x1f",
		"mfn 0x2a ok",
		"0x0123456789abcdef0",       // 17 digits: ParseUint overflows, the token stays
		"0x00000000000000000000001", // leading zeros still parse
		"at 0xFFFFFFFFFFFFFFFF and 0xffff830000000000",
		"dead cafe beef feed",         // hex-alphabet words survive
		"dead1 1dead cafe42 00c0ffee", // hex words with a digit are masked
		"123 1234 12345678901234567",  // a 17-digit run overflows and stays
		"frame_1234 1234_frame a1234b x1234 1234x",
		"_1234 1234_ _abcd1_",
		"«ver» «mode» «seg:hv-text»1234«frame»",
		"«1234» é1234é 1234é",
		"4.6 injection on 4.61234 and x4.6y",
		"4.13-exploit4.13 4.131234",
		"\xff1234\xfe 0x12\x80",
	} {
		f.Add(s)
	}
	cs := fuzzCanonicalizers()
	f.Fuzz(func(t *testing.T, s string) {
		for _, c := range cs {
			if got, want := c.normalizeText(s), referenceNormalize(c, s); got != want {
				t.Fatalf("version %q: normalizeText(%q)\n got %q\nwant %q", c.version, s, got, want)
			}
		}
	})
}

// fmtEventString is Event.String as it was written with fmt, the
// format the persisted effect streams and every ledger digest pin.
func fmtEventString(e Event) string {
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

// TestEventStringFormat pins Event.String to its fmt rendering on
// quotes, non-ASCII and control text, zero and negative fields.
func TestEventStringFormat(t *testing.T) {
	for _, tc := range []struct {
		e    Event
		want string
	}{
		{Event{Kind: "scenario_step", Addr: "0", Val: "0"}, `scenario_step`},
		{Event{Kind: "verdict_evidence", Addr: "0", Val: "1", Label: "XSA-148-priv", Detail: `wrote "«frame»" to L2`, StateAudit: true},
			`verdict_evidence val=1 label="XSA-148-priv" detail="wrote \"«frame»\" to L2" [state-audit]`},
		{Event{Kind: "hypercall_enter", Dom: 3, Nr: -7, Addr: "«seg:hv-text»", Val: "0", Label: "mmu_update"},
			`hypercall_enter dom=3 nr=-7 addr=«seg:hv-text» label="mmu_update"`},
		{Event{Kind: "k", Dom: 65535, Nr: 2147483647, Addr: "", Val: "", Label: "tab\there\n", Detail: "bad\xffutf8 \u2028 \\"},
			"k dom=65535 nr=2147483647 addr= val= label=\"tab\\there\\n\" detail=\"bad\\xffutf8 \\u2028 \\\\\""},
	} {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("String() = %s\nwant        %s", got, tc.want)
		}
		if got := fmtEventString(tc.e); got != tc.want {
			t.Errorf("fmt rendering = %s\nwant          %s", got, tc.want)
		}
	}
}
