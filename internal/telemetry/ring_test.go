package telemetry

// The on-demand ring contract: the ring's memory follows the events
// actually emitted, while retention, wraparound, drop accounting and
// Seq behave exactly as for a ring allocated at its bound up front, and
// a snapshot from Events never changes once taken.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/faults"
)

// TestRingGrowsToBoundThenWraps drives a recorder with a bound well
// above the initial allocation (and not a power of two) through several
// reallocations into wraparound, with one sink-write fault on the way.
func TestRingGrowsToBoundThenWraps(t *testing.T) {
	const bound = 3000
	r := NewRecorder(bound)
	r.AttachFaults(faults.NewInjector().Arm(faults.SiteSinkWrite, 700))
	caps := map[int]bool{cap(r.ring): true}
	const writes = bound + 1234
	for i := 0; i < writes; i++ {
		r.ScenarioStep("uc", fmt.Sprintf("line %d", i))
		caps[cap(r.ring)] = true
		if cap(r.ring) > bound {
			t.Fatalf("after %d writes the ring's capacity is %d, past the bound %d", i+1, cap(r.ring), bound)
		}
	}
	if len(caps) < 3 {
		t.Errorf("ring went through capacities %v, want at least two reallocations", caps)
	}
	if !caps[bound] {
		t.Errorf("ring never reached the bound %d exactly (capacities %v)", bound, caps)
	}
	landed := uint64(writes - 1)
	if got := r.Emitted(); got != landed {
		t.Errorf("Emitted = %d, want %d", got, landed)
	}
	if got, want := r.Dropped(), landed-bound+1; got != want {
		t.Errorf("Dropped = %d, want %d (%d overwrites + 1 sink drop)", got, want, landed-bound)
	}
	events := r.Events()
	if len(events) != bound {
		t.Fatalf("retained %d events, want the bound %d", len(events), bound)
	}
	for i, e := range events {
		if want := landed - bound + uint64(i); e.Seq != want {
			t.Fatalf("event %d: Seq = %d, want %d (oldest-first, gapless)", i, e.Seq, want)
		}
	}
}

// TestEventsSnapshotNeverChanges takes snapshots at every interesting
// fill level — empty, mid-ring, on either side of a reallocation, one
// short of the bound, exactly full (the next emit overwrites slot 0)
// and wrapped — then keeps emitting past a second wrap and checks that
// no snapshot moved. The 8-slot bound starts at its full capacity, so a
// shared prefix there sits in the very array a later wrap overwrites.
func TestEventsSnapshotNeverChanges(t *testing.T) {
	for _, bound := range []int{8, 1000} {
		t.Run(fmt.Sprint("bound=", bound), func(t *testing.T) {
			points := map[int]bool{0: true, 1: true, 5: true, bound - 1: true, bound: true, bound + 1: true, bound + 3: true}
			if bound > initialRingCapacity {
				points[initialRingCapacity-1] = true
				points[initialRingCapacity] = true
				points[initialRingCapacity+1] = true
			}
			r := NewRecorder(bound)
			type snap struct {
				at        int
				got, want []Event
			}
			var snaps []snap
			for i := 0; i <= 2*bound+5; i++ {
				if points[i] {
					got := r.Events()
					want := append([]Event(nil), got...)
					if len(want) != min(i, bound) {
						t.Fatalf("snapshot at %d emits: %d events, want %d", i, len(want), min(i, bound))
					}
					for j, e := range want {
						if seq := uint64(i - len(want) + j); e.Seq != seq {
							t.Fatalf("snapshot at %d emits: event %d has Seq %d, want %d", i, j, e.Seq, seq)
						}
					}
					snaps = append(snaps, snap{i, got, want})
				}
				r.ScenarioStep("uc", fmt.Sprintf("line %d", i))
			}
			for _, s := range snaps {
				for j := range s.want {
					if s.got[j] != s.want[j] {
						t.Errorf("snapshot at %d emits changed at index %d: %+v, was %+v", s.at, j, s.got[j], s.want[j])
						break
					}
				}
			}
		})
	}
}

// allocSink keeps the measured recorders reachable so their rings are
// really allocated.
var allocSink *Recorder

// TestRecorderAllocatesForEmittedEvents pins the point of the on-demand
// ring: a default recorder that records a typical campaign cell's few
// hundred events allocates tens of KiB, not the 1 MiB a ring allocated
// at DefaultRingCapacity would cost.
func TestRecorderAllocatesForEmittedEvents(t *testing.T) {
	const runs, emits = 20, 320
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		r := NewRecorder(0)
		for j := 0; j < emits; j++ {
			r.ScenarioStep("uc", "line")
		}
		allocSink = r
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("NewRecorder(0) plus %d emits allocated %d bytes, want under 64 KiB", emits, per)
	}
}
