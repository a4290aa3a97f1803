package tracediff

import (
	"repro/internal/telemetry"
)

// The persisted form of a canonical stream. The campaign run ledger
// stores each profiled cell's effect stream (and its marked state-audit
// substream) as rendered lines, so RQ2 equivalence can be regraded
// offline from a run record — across resumes, and across runs in a
// cross-run diff — without keeping the raw trace. Event.String renders
// every field the structural comparison inspects, so line equality is
// event equality.

// CanonicalStreams canonicalizes a profiled cell's recorded events and
// renders its effect stream and marked state-audit substream as plain
// strings, the persisted form run-ledger records store. Only effect
// events are persisted, so only they are canonicalized: the raw kind
// picks them out before any text is normalized, and each kept event is
// rendered once and shared by both streams (the state audit is a
// substream of the effects).
func CanonicalStreams(version string, machineFrames uint64, evs []telemetry.Event) (effectLines, auditLines []string) {
	c := NewCanonicalizer(version, machineFrames)
	n := 0
	for i := range evs {
		if isEffectKind(evs[i].Kind) {
			n++
		}
	}
	effectLines = make([]string, 0, n)
	var buf []byte
	for i := range evs {
		if !isEffectKind(evs[i].Kind) {
			continue
		}
		e := c.event(&evs[i])
		buf = e.appendText(buf[:0])
		line := string(buf)
		effectLines = append(effectLines, line)
		if e.StateAudit {
			auditLines = append(auditLines, line)
		}
	}
	return effectLines, auditLines
}

// isEffectKind is Event.isEffect on the raw telemetry kind.
func isEffectKind(k telemetry.Kind) bool {
	return k == telemetry.KindScenarioStep || k == telemetry.KindVerdictEvidence
}

// CompareStreams grades two persisted canonical streams in lockstep,
// like Compare over live streams. Persisted streams carry only the
// effect substream — mechanism events are deliberately not kept in run
// records — so the strongest reachable tier is equivalent-modulo-noise;
// the identical tier requires the full streams. In practice this loses
// nothing: an exploit and an injection reach the state through
// different mechanisms by design, so a cross-mode comparison never
// grades identical even live.
func CompareStreams(a, b []string) (Tier, *Divergence) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return TierDivergent, &Divergence{Index: i, A: a[i], B: b[i]}
		}
	}
	switch {
	case len(a) > n:
		return TierDivergent, &Divergence{Index: n, A: a[n], B: Absent}
	case len(b) > n:
		return TierDivergent, &Divergence{Index: n, A: Absent, B: b[n]}
	}
	return TierEquivalent, nil
}
