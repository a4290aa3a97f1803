package campaign_test

// The snapshot differential suite: every artifact the campaign engine
// produces — the JSON export, per-cell canonical traces, the span
// forest — must be byte-identical whether cells boot fresh or fork from
// the (version, mode) snapshot, at any worker count and under seeded
// chaos. This is the guarantee that lets the fork path replace the
// fresh boot without touching a single golden pin.

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/exploits"
	"repro/internal/faults"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/tracediff"
)

// withSnapshots flips the process-wide snapshot toggle for one test,
// restoring the previous state afterward.
func withSnapshots(t *testing.T) func(on bool) {
	t.Helper()
	prev := campaign.SnapshotsEnabled()
	t.Cleanup(func() { campaign.EnableSnapshots(prev) })
	return campaign.EnableSnapshots
}

// TestForkVsFreshArtifactByteIdentical compares the full matrix JSON
// artifact between fresh-boot and fork-boot, at workers 1/4/8, without
// faults and under two chaos seeds.
func TestForkVsFreshArtifactByteIdentical(t *testing.T) {
	set := withSnapshots(t)
	export := func(snapshots bool, workers int, seed int64) []byte {
		t.Helper()
		set(snapshots)
		r := &campaign.Runner{Workers: workers}
		var plan *faults.Plan
		if seed >= 0 {
			plan = faults.NewPlan(seed, faults.DefaultDensity)
			r.Faults = plan
			r.ContinueOnError = true
		}
		out := exportMatrix(t, r, exploits.Specs())
		if plan != nil {
			plan.ReleaseAll()
		}
		return out
	}
	for _, seed := range []int64{-1, 7, 99} { // -1 = no fault plan
		for _, w := range []int{1, 4, 8} {
			fresh := export(false, w, seed)
			fork := export(true, w, seed)
			if !bytes.Equal(fresh, fork) {
				i := 0
				for i < len(fresh) && i < len(fork) && fresh[i] == fork[i] {
					i++
				}
				lo := max(0, i-80)
				t.Errorf("workers=%d seed=%d: fork artifact diverges from fresh at byte %d\nfresh: ...%s\nfork:  ...%s",
					w, seed, i, fresh[lo:min(i+80, len(fresh))], fork[lo:min(i+80, len(fork))])
			}
		}
	}
}

// TestForkVsFreshCanonicalTracesIdentical compares every default matrix
// cell's canonical telemetry trace (the RQ2 equivalence surface) and
// final counters between fresh-boot and fork-boot.
func TestForkVsFreshCanonicalTracesIdentical(t *testing.T) {
	set := withSnapshots(t)
	collect := func(snapshots bool) map[string]string {
		t.Helper()
		set(snapshots)
		reg := telemetry.NewRegistry()
		r := &campaign.Runner{Workers: 4, Telemetry: reg}
		if _, err := r.RunMatrixContext(context.Background()); err != nil {
			t.Fatalf("snapshots=%v: %v", snapshots, err)
		}
		out := make(map[string]string)
		for _, p := range reg.CellProfiles() {
			version := p.Cell[:strings.IndexByte(p.Cell, '/')]
			c := tracediff.NewCanonicalizer(version, campaign.MachineFrames)
			var sb strings.Builder
			for _, cv := range p.Counters {
				sb.WriteString(cv.Name)
				sb.WriteByte('=')
				sb.WriteString(fmtUint(cv.Value))
				sb.WriteByte('\n')
			}
			for _, e := range c.Events(stream(p)) {
				sb.WriteString(e.String())
				sb.WriteByte('\n')
			}
			out[p.Cell] = sb.String()
		}
		return out
	}
	fresh := collect(false)
	fork := collect(true)
	if len(fresh) != len(fork) {
		t.Fatalf("profile counts differ: fresh=%d fork=%d", len(fresh), len(fork))
	}
	for cell, want := range fresh {
		got, ok := fork[cell]
		if !ok {
			t.Errorf("cell %s missing from fork run", cell)
			continue
		}
		if got != want {
			t.Errorf("cell %s: canonical trace diverges\n--- fresh ---\n%s\n--- fork ---\n%s", cell, firstDiffLines(want, got), firstDiffLines(got, want))
		}
	}
}

// TestForkVsFreshSpanForestIdentical compares the campaign's canonical
// span forest between fresh-boot and fork-boot at workers 1/4/8.
func TestForkVsFreshSpanForestIdentical(t *testing.T) {
	set := withSnapshots(t)
	forest := func(snapshots bool, workers int) string {
		t.Helper()
		set(snapshots)
		col := span.NewCollector()
		r := &campaign.Runner{Workers: workers, Spans: col}
		if _, err := r.RunMatrixContext(context.Background()); err != nil {
			t.Fatalf("snapshots=%v workers=%d: %v", snapshots, workers, err)
		}
		return col.Forest().Canonical()
	}
	for _, w := range []int{1, 4, 8} {
		fresh := forest(false, w)
		fork := forest(true, w)
		if fresh != fork {
			t.Errorf("workers=%d: span forest diverges\n%s", w, firstDiffLines(fresh, fork))
		}
	}
}

// stream returns a profile's whole retained event stream: the shared
// boot prefix a forked cell adopts, then the cell's own events.
func stream(p *telemetry.CellProfile) []telemetry.Event {
	return append(append([]telemetry.Event(nil), p.Boot...), p.Events...)
}

// fmtUint renders a counter value without pulling in strconv at every
// call site.
func fmtUint(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// firstDiffLines returns the first few lines around the first differing
// line of a vs b, for readable failure output.
func firstDiffLines(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			lo := max(0, i-2)
			hi := min(i+3, len(al))
			return "line " + fmtUint(uint64(i)) + ":\n" + strings.Join(al[lo:hi], "\n")
		}
	}
	if len(al) != len(bl) {
		return "line counts differ: " + fmtUint(uint64(len(al))) + " vs " + fmtUint(uint64(len(bl)))
	}
	return "(no line-level difference found)"
}

// TestForkVsFreshSinkFault arms sink-write faults at positions counted
// from each cell's own events — its first, a middle, its third and its
// last — since the fault plane starts at the fork point, and compares
// each armed cell between fresh boot and fork: the ring (Seq, kinds,
// operands), the counters including telemetry.sink_errors, the
// coverage edges and the span forest must all be identical.
func TestForkVsFreshSinkFault(t *testing.T) {
	set := withSnapshots(t)
	type cellRun struct {
		events   []telemetry.Event
		own      uint64 // events after the shared boot prefix
		counters []telemetry.CounterValue
		cov      []coverage.Edge
	}
	run := func(snapshots bool, plan *faults.Plan) (map[string]cellRun, string) {
		t.Helper()
		set(snapshots)
		reg := telemetry.NewRegistry()
		cov, spans := coverage.NewCollector(), span.NewCollector()
		r := &campaign.Runner{Workers: 4, Telemetry: reg, Coverage: cov, Spans: spans, Faults: plan, ContinueOnError: true}
		if _, err := r.RunMatrixContext(context.Background()); err != nil {
			t.Fatalf("snapshots=%v: %v", snapshots, err)
		}
		out := make(map[string]cellRun)
		for _, p := range reg.CellProfiles() {
			out[p.Cell] = cellRun{events: stream(p), own: uint64(len(p.Events)), counters: p.Counters}
		}
		for _, c := range cov.Report().Cells {
			cr := out[c.Cell]
			cr.cov = c.Edges
			out[c.Cell] = cr
		}
		return out, spans.Forest().Canonical()
	}

	// A forked cell's profile holds the shared boot apart from its own
	// events, so an unfaulted fork run counts each cell's own events.
	clean, _ := run(true, nil)
	own := func(cell string) uint64 {
		n := clean[cell].own
		if n < 4 || len(clean[cell].events) < int(n)+100 {
			t.Fatalf("%s: %d own events behind %d in all; expected a tail behind the shared boot's hundreds", cell, n, len(clean[cell].events))
		}
		return n
	}
	arms := map[string]uint64{
		"4.6/XSA-148-priv/injection":  1,
		"4.6/XSA-212-priv/exploit":    own("4.6/XSA-212-priv/exploit") / 2,
		"4.13/XSA-182-test/injection": own("4.13/XSA-182-test/injection"),
		"4.8/XSA-148-priv/exploit":    3,
	}
	plan := faults.NewPlan(0, 0)
	for cell, nth := range arms {
		plan.ArmCell(cell, faults.SiteSinkWrite, nth)
	}
	fresh, freshForest := run(false, plan)
	fork, forkForest := run(true, plan)
	plan.ReleaseAll()

	for cell := range arms {
		f, k := fresh[cell], fork[cell]
		errs := uint64(0)
		for _, c := range k.counters {
			if c.Name == "telemetry.sink_errors" {
				errs = c.Value
			}
		}
		if errs != 1 {
			t.Errorf("%s: fork counted %d sink errors, want the armed 1", cell, errs)
		}
		if len(k.events) != len(clean[cell].events)-1 {
			t.Errorf("%s: fork kept %d events, want one fewer than the unfaulted %d", cell, len(k.events), len(clean[cell].events))
		}
		if !reflect.DeepEqual(f.events, k.events) {
			t.Errorf("%s: fork ring differs from fresh boot\nfresh: %v\nfork:  %v", cell, f.events, k.events)
		}
		if !reflect.DeepEqual(f.counters, k.counters) {
			t.Errorf("%s: fork counters differ from fresh boot\nfresh: %v\nfork:  %v", cell, f.counters, k.counters)
		}
		if len(k.cov) == 0 || !reflect.DeepEqual(f.cov, k.cov) {
			t.Errorf("%s: fork coverage differs from fresh boot\nfresh: %v\nfork:  %v", cell, f.cov, k.cov)
		}
	}
	if freshForest != forkForest {
		t.Errorf("span forest diverges\n%s", firstDiffLines(freshForest, forkForest))
	}
}
