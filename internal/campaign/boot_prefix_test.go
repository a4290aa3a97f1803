package campaign

// The shared-boot-prefix oracle: a forked cell's recorder adopts its
// snapshot's boot events as a read-only prefix instead of copying them
// into its ring, retaining the newest bound of them. At every ring
// bound around the prefix and tail lengths, and with sink-write faults
// armed at, inside and past the cell's own events, a forked cell must
// record exactly what a fresh boot records.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/coverage"
	"repro/internal/faults"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// cellCapture is everything one run of a cell puts in its sinks.
type cellCapture struct {
	boot, stream []telemetry.Event
	dropped      uint64
	counters     []telemetry.CounterValue
	cov          string
	spans        []span.Span
}

// captureCell runs one cell through runScenario, forked or freshly
// booted, into a recorder of the given bound (0 = default) whose
// sink-write site is armed at arm (0 = unarmed), counted from the
// cell's own events.
func captureCell(t *testing.T, c cell, fork bool, bound int, arm uint64) cellCapture {
	t.Helper()
	prev := SnapshotsEnabled()
	EnableSnapshots(fork)
	defer EnableSnapshots(prev)

	var inj *faults.Injector
	if arm > 0 {
		inj = faults.NewInjector().Arm(faults.SiteSinkWrite, arm)
	}
	rec := telemetry.NewRecorder(bound)
	rec.AttachCoverage(coverage.NewMap())
	tree := span.NewTree(c.String(), rec.Emitted)
	_, recycle, err := runScenario(c, rec, inj, tree)
	if err != nil {
		t.Fatalf("%s fork=%v bound=%d arm=%d: %v", c, fork, bound, arm, err)
	}
	tree.Finish()
	if recycle != nil {
		recycle()
	}
	spans := append([]span.Span(nil), tree.Spans()...)
	for i := range spans {
		spans[i].StartNS, spans[i].EndNS = 0, 0
	}
	return cellCapture{
		boot:     rec.Boot(),
		stream:   append(append([]telemetry.Event(nil), rec.Boot()...), rec.Events()...),
		dropped:  rec.Dropped(),
		counters: rec.Counters(),
		cov:      coverage.Canonical(rec.Coverage().Edges()),
		spans:    spans,
	}
}

func TestSharedBootPrefixMatchesFreshBoot(t *testing.T) {
	p := campaignPlan()
	// One cell of each (version, mode) snapshot; 4.13/EVT-flood-dom0's
	// exploit emits hundreds of events of its own, so its tail grows the
	// ring several times before any bound is reached.
	refs := []CellRef{
		{"4.6", "XSA-148-priv", ModeInjection},
		{"4.6", "XSA-212-priv", ModeExploit},
		{"4.8", "DOMCTL-pauseall", ModeInjection},
		{"4.8", "MX-heap-wide", ModeExploit},
		{"4.13", "XSA-182-test", ModeInjection},
		{"4.13", "EVT-flood-dom0", ModeExploit},
	}
	for _, ref := range refs {
		c, err := p.resolve(ref)
		if err != nil {
			t.Fatal(err)
		}
		id := c.String()
		clean := captureCell(t, c, true, 0, 0)
		P, T := len(clean.boot), len(clean.stream)-len(clean.boot)
		if P < 100 || T == 0 {
			t.Fatalf("%s: forked cell shares %d boot events and emits %d of its own; expected the boot's hundreds and a tail", id, P, T)
		}
		for _, bound := range []int{1, P - 1, P, P + 1, P + T - 1, P + T + 1, 0} {
			for _, arm := range []uint64{0, 1, uint64(T), uint64(T) + 1} {
				t.Run(fmt.Sprintf("%s/bound=%d/arm=%d", id, bound, arm), func(t *testing.T) {
					fresh := captureCell(t, c, false, bound, arm)
					fork := captureCell(t, c, true, bound, arm)
					if !reflect.DeepEqual(fork.stream, fresh.stream) {
						t.Errorf("event stream differs\nfork:  %v\nfresh: %v", fork.stream, fresh.stream)
					}
					if fork.dropped != fresh.dropped {
						t.Errorf("Dropped = %d, fresh boot %d", fork.dropped, fresh.dropped)
					}
					if !reflect.DeepEqual(fork.counters, fresh.counters) {
						t.Errorf("counters differ\nfork:  %v\nfresh: %v", fork.counters, fresh.counters)
					}
					if fork.cov != fresh.cov || fresh.cov == "" {
						t.Errorf("coverage differs\nfork:\n%s\nfresh:\n%s", fork.cov, fresh.cov)
					}
					if !reflect.DeepEqual(fork.spans, fresh.spans) {
						t.Errorf("span tree differs\nfork:  %+v\nfresh: %+v", fork.spans, fresh.spans)
					}
					// Pin which path ran: the fresh boot shares nothing, and
					// the fork shares its whole boot until the stream
					// outgrows the bound.
					effective := uint64(bound)
					if bound == 0 {
						effective = telemetry.DefaultRingCapacity
					}
					landed := uint64(P + T)
					if arm > 0 && arm <= uint64(T) {
						landed--
					}
					if len(fresh.boot) != 0 {
						t.Errorf("fresh boot shares %d boot events, want none", len(fresh.boot))
					}
					if want := landed <= effective; (len(fork.boot) == P) != want {
						t.Errorf("fork kept %d shared boot events; want the whole boot shared: %v", len(fork.boot), want)
					}
				})
			}
		}
	}
}
