package campaign_test

// The scheduler-observer suite: the wall-clock SchedObserver hook must
// deliver exactly one terminal CellSettled per cell — including cells
// that panic, hang, or are canceled before pickup — and installing the
// hook (or the structured logger) must leave the deterministic
// artifact byte-for-byte untouched.

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/faults"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// recordingSched is a thread-safe SchedObserver that remembers every
// hook invocation. Workers call the hooks concurrently.
type recordingSched struct {
	mu         sync.Mutex
	batches    int // BatchQueued calls
	queued     []string
	dispatched map[string]int // cell -> worker
	settled    map[string]int // cell -> settle count
	classes    map[string]campaign.FailureClass
	workers    map[string]int // cell -> worker at settle
	badQueueNS int
}

func newRecordingSched() *recordingSched {
	return &recordingSched{
		dispatched: make(map[string]int),
		settled:    make(map[string]int),
		classes:    make(map[string]campaign.FailureClass),
		workers:    make(map[string]int),
	}
}

func (r *recordingSched) BatchQueued(cells []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.batches++
	r.queued = append(r.queued, cells...)
}

func (r *recordingSched) CellDispatched(cell string, worker int, queueNS int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dispatched[cell] = worker
	if queueNS < 0 {
		r.badQueueNS++
	}
}

func (r *recordingSched) CellSettled(cell string, worker int, queueNS, runNS int64, profile *telemetry.CellProfile, cerr *campaign.CellError) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.settled[cell]++
	r.workers[cell] = worker
	if cerr != nil {
		r.classes[cell] = cerr.Class
	}
	if queueNS < 0 || runNS < 0 {
		r.badQueueNS++
	}
}

// TestSchedObserverExactlyOncePerCell runs the chaos matrix — panics,
// hangs, forced errors, the lot — and checks the terminal-event
// contract: one CellSettled per cell, class agreeing with the entry's
// error record, worker identity consistent with dispatch.
func TestSchedObserverExactlyOncePerCell(t *testing.T) {
	for _, seed := range []int64{1, 7, 99} {
		plan := faults.NewPlan(seed, faults.DefaultDensity)
		rec := newRecordingSched()
		r := &campaign.Runner{Workers: 8, ContinueOnError: true, Faults: plan, Sched: rec}
		entries, err := r.RunMatrixContext(context.Background())
		plan.ReleaseAll()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rec.queued) != len(entries) {
			t.Fatalf("seed %d: BatchQueued saw %d cells, matrix has %d", seed, len(rec.queued), len(entries))
		}
		if rec.badQueueNS != 0 {
			t.Fatalf("seed %d: %d hook calls carried negative queue/run durations", seed, rec.badQueueNS)
		}
		for _, e := range entries {
			id := e.Version + "/" + e.UseCase + "/" + string(e.Mode)
			if n := rec.settled[id]; n != 1 {
				t.Errorf("seed %d: cell %s settled %d times, want exactly 1", seed, id, n)
			}
			if e.Err != nil {
				if got := rec.classes[id]; got != e.Err.Class {
					t.Errorf("seed %d: cell %s event class %q, entry class %q", seed, id, got, e.Err.Class)
				}
			} else if _, failed := rec.classes[id]; failed {
				t.Errorf("seed %d: cell %s succeeded but its event carried a failure class", seed, id)
			}
			// A dispatched cell settles on the worker that ran it; an
			// undispatched (canceled) cell settles on the synthetic -1.
			if w, ok := rec.dispatched[id]; ok {
				if rec.workers[id] != w {
					t.Errorf("seed %d: cell %s dispatched on worker %d, settled on %d", seed, id, w, rec.workers[id])
				}
			} else if rec.workers[id] != -1 {
				t.Errorf("seed %d: undispatched cell %s settled on worker %d, want -1", seed, id, rec.workers[id])
			}
		}
		if len(rec.settled) != len(entries) {
			t.Fatalf("seed %d: %d distinct cells settled, want %d", seed, len(rec.settled), len(entries))
		}
	}
}

// TestSchedHooksDoNotPerturbArtifact is the quarantine gate for this
// PR: wiring the wall-clock observer and the structured logger must
// not move a single byte of the deterministic matrix artifact.
func TestSchedHooksDoNotPerturbArtifact(t *testing.T) {
	export := func(sched campaign.SchedObserver, log *slog.Logger) []byte {
		t.Helper()
		r := &campaign.Runner{Workers: 4, Sched: sched, Log: log}
		var buf bytes.Buffer
		if err := r.ExportMatrixContext(context.Background(), &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := export(nil, nil)
	logger := slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug}))
	if got := export(newRecordingSched(), logger); !bytes.Equal(ref, got) {
		t.Fatal("matrix artifact differs with the sched observer and logger installed")
	}
}

// A single cell settles like every other cell: RunContext announces it
// as a one-cell batch to the scheduler hook and to both collectors.
func TestRunContextAnnouncesOneCellBatch(t *testing.T) {
	sched := newRecordingSched()
	r := &campaign.Runner{Workers: 4, Sched: sched, Spans: span.NewCollector(), Coverage: coverage.NewCollector()}
	v := campaign.Table3Versions()[0]
	if _, err := r.RunContext(context.Background(), v, "XSA-148-priv", campaign.ModeInjection); err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	id := v.Name + "/XSA-148-priv/injection"
	if sched.batches != 1 || len(sched.queued) != 1 || sched.queued[0] != id {
		t.Errorf("scheduler saw %d batches queuing %v, want one BatchQueued([%s])", sched.batches, sched.queued, id)
	}
	if sched.settled[id] != 1 {
		t.Errorf("cell settled %d times, want 1", sched.settled[id])
	}
	f := r.Spans.Forest()
	if len(f.Batches) != 1 || f.Batches[0].Name != "batch01" || len(f.Batches[0].Cells) != 1 || f.Batches[0].Cells[0].Cell != id {
		t.Errorf("span forest = %+v, want one one-cell batch01 holding %s", f.Batches, id)
	}
	rep := r.Coverage.Report()
	if len(rep.Cells) != 1 || rep.Cells[0].Cell != id || len(rep.Cells[0].Edges) == 0 {
		t.Errorf("coverage report cells = %+v, want %s with edges", rep.Cells, id)
	}
}
