package tracediff

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// profileSink collects every settled cell's telemetry profile and
// counts the failed cells whose profile was salvaged.
type profileSink struct {
	mu       sync.Mutex
	profiles []*telemetry.CellProfile
	salvaged int
}

func (s *profileSink) CellFinished(_ string, _ time.Duration, p *telemetry.CellProfile, cerr *campaign.CellError) {
	if p == nil {
		return
	}
	s.mu.Lock()
	s.profiles = append(s.profiles, p)
	if cerr != nil {
		s.salvaged++
	}
	s.mu.Unlock()
}

// referenceStreams is the canonicalize-everything derivation the
// filtered CanonicalStreams must reproduce: canonicalize the whole
// trace, then extract the effect and state-audit substreams and render
// them.
func referenceStreams(version string, machineFrames uint64, evs []telemetry.Event) (effectLines, auditLines []string) {
	stream := NewCanonicalizer(version, machineFrames).Events(evs)
	eff := effects(stream)
	effectLines = make([]string, 0, len(eff))
	for _, e := range eff {
		effectLines = append(effectLines, e.String())
	}
	for _, e := range stateAudit(stream) {
		auditLines = append(auditLines, e.String())
	}
	return effectLines, auditLines
}

// TestCanonicalStreamsMatchesReference is the differential test of the
// persisted-stream fast path: over every profiled cell of the default
// matrix and of a seeded chaos matrix (salvaged profiles of failed
// cells included), CanonicalStreams returns line for line what
// canonicalizing the whole trace and then filtering does.
func TestCanonicalStreamsMatchesReference(t *testing.T) {
	for _, chaos := range []bool{false, true} {
		t.Run(fmt.Sprint("chaos=", chaos), func(t *testing.T) {
			sink := &profileSink{}
			r := &campaign.Runner{Workers: 4, Telemetry: telemetry.NewRegistry(), SalvageProfiles: true, Progress: sink}
			if chaos {
				plan := faults.NewPlan(7, faults.DefaultDensity)
				defer plan.ReleaseAll()
				r.Faults, r.ContinueOnError = plan, true
			}
			if _, err := r.RunMatrixContext(context.Background()); err != nil {
				t.Fatalf("RunMatrixContext: %v", err)
			}
			if len(sink.profiles) != 102 {
				t.Fatalf("%d profiled cells, want all 102", len(sink.profiles))
			}
			if chaos && sink.salvaged == 0 {
				t.Fatal("no failed cell's profile was salvaged; the chaos plan is not biting")
			}
			audited := 0
			for _, p := range sink.profiles {
				version := p.Cell[:strings.IndexByte(p.Cell, '/')]
				gotEff, gotAudit := CanonicalStreams(version, campaign.MachineFrames, p.Events)
				wantEff, wantAudit := referenceStreams(version, campaign.MachineFrames, p.Events)
				if !sameLines(gotEff, wantEff) {
					t.Errorf("%s: effect stream differs from the reference\ngot:  %q\nwant: %q", p.Cell, gotEff, wantEff)
				}
				if !sameLines(gotAudit, wantAudit) {
					t.Errorf("%s: state-audit stream differs from the reference\ngot:  %q\nwant: %q", p.Cell, gotAudit, wantAudit)
				}
				if len(wantEff) > 0 && len(wantAudit) > 0 {
					audited++
				}
			}
			if audited == 0 {
				t.Error("no profiled cell carried both effect and state-audit lines; the comparison is vacuous")
			}
		})
	}
}

// sameLines compares two persisted streams, nil-ness included: the
// ledger's JSON encoding distinguishes an absent stream from an empty
// one only through omitempty, but the slices should agree regardless.
func sameLines(a, b []string) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
