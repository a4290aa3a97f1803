package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestNilRecorderIsSafe pins the disabled-sink contract: every method
// of a nil *Recorder is a no-op, so instrumented hot paths need no
// guards at the call sites.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Inc("x")
	r.Add("x", 3)
	r.HypercallEnter(1, 2, NewOp("hypercall", "mmu_update"))
	r.HypercallExit(1, 2, NewOp("hypercall", "mmu_update"), errors.New("boom"))
	r.PageTypeGet(5, "l1")
	r.PageTypePut(5, "l1")
	r.ValidationReject(1, 2, "nope")
	r.WalkDenied(0xdead, "policy")
	r.WalkFault()
	r.InjectorOp(3, "ARBITRARY_WRITE_LINEAR", 0xbeef, 8)
	r.InjectorTransition(3, "initial", "erroneous", "KEEP_PAGE_ACCESS")
	r.ScenarioStep("XSA-148-priv", "step")
	r.Evidence("XSA-148-priv", "evidence")
	r.GrantOp(2, NewOp("grant", "map"), 7)
	r.DomctlOp(0, NewOp("domctl", "pause"), 2)
	if r.Enabled() {
		t.Error("nil recorder reports Enabled")
	}
	if r.Emitted() != 0 || r.Dropped() != 0 || r.Counter("x") != 0 {
		t.Error("nil recorder reports nonzero state")
	}
	if r.Events() != nil || r.Counters() != nil || r.Profile("c", 1) != nil {
		t.Error("nil recorder returned non-nil collections")
	}
}

// TestRingWraparound checks the bounded ring overwrites oldest-first
// and accounts for the overwritten events.
func TestRingWraparound(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.ScenarioStep("uc", fmt.Sprintf("line %d", i))
	}
	if got := r.Emitted(); got != 10 {
		t.Errorf("Emitted = %d, want 10", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	events := r.Events()
	if len(events) != 4 {
		t.Fatalf("retained %d events, want 4", len(events))
	}
	for i, e := range events {
		wantSeq := uint64(6 + i)
		if e.Seq != wantSeq {
			t.Errorf("event %d: Seq = %d, want %d (oldest-first order)", i, e.Seq, wantSeq)
		}
		if want := fmt.Sprintf("line %d", 6+i); e.Detail != want {
			t.Errorf("event %d: Detail = %q, want %q", i, e.Detail, want)
		}
	}
	if got := r.Counter("scenario.steps"); got != 10 {
		t.Errorf("scenario.steps = %d, want 10 (counters outlive the ring)", got)
	}
}

// TestRecorderCountersSortedAndTyped checks counter keys, sorting, and
// the error-only Detail of hypercall exits.
func TestRecorderCountersSortedAndTyped(t *testing.T) {
	r := NewRecorder(0)
	r.HypercallEnter(1, 1, NewOp("hypercall", "mmu_update"))
	r.HypercallExit(1, 1, NewOp("hypercall", "mmu_update"), nil)
	r.HypercallEnter(1, 20, NewOp("hypercall", "grant_table_op"))
	r.HypercallExit(1, 20, NewOp("hypercall", "grant_table_op"), errors.New("refused"))
	r.GrantOp(1, NewOp("grant", "map"), 3)

	counters := r.Counters()
	for i := 1; i < len(counters); i++ {
		if counters[i-1].Name >= counters[i].Name {
			t.Fatalf("counters not sorted: %q before %q", counters[i-1].Name, counters[i].Name)
		}
	}
	if got := r.Counter("hypercall.mmu_update"); got != 1 {
		t.Errorf("hypercall.mmu_update = %d, want 1", got)
	}
	if got := r.Counter("hypercall.errors"); got != 1 {
		t.Errorf("hypercall.errors = %d, want 1", got)
	}
	events := r.Events()
	var sawCleanExit, sawFailedExit bool
	for _, e := range events {
		if e.Kind != KindHypercallExit {
			continue
		}
		if e.Detail == "" {
			sawCleanExit = true
		} else if e.Detail == "refused" {
			sawFailedExit = true
		}
	}
	if !sawCleanExit || !sawFailedExit {
		t.Errorf("exit events: clean=%v failed=%v, want both", sawCleanExit, sawFailedExit)
	}
}

// TestJSONLRoundTrip writes profiles and reads them back.
func TestJSONLRoundTrip(t *testing.T) {
	r := NewRecorder(0)
	r.HypercallEnter(1, 1, NewOp("hypercall", "mmu_update"))
	r.HypercallExit(1, 1, NewOp("hypercall", "mmu_update"), nil)
	r.PageTypeGet(42, "l1")
	p := r.Profile("4.6/XSA-148-priv/injection", 123456)

	var buf bytes.Buffer
	if err := WriteTrace(&buf, []*CellProfile{p, nil}); err != nil {
		t.Fatal(err)
	}
	records, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// 3 events + 1 cell_end; the nil profile contributes nothing.
	if len(records) != 4 {
		t.Fatalf("round-tripped %d records, want 4", len(records))
	}
	for i, rec := range records[:3] {
		if rec.Cell != p.Cell {
			t.Errorf("record %d: cell %q, want %q", i, rec.Cell, p.Cell)
		}
		if rec.Kind == CellEndKind {
			t.Errorf("record %d: premature cell_end", i)
		}
	}
	end := records[3]
	if end.Kind != CellEndKind || end.WallNS != 123456 || len(end.Counters) == 0 {
		t.Errorf("cell_end = %+v, want kind=%s wall_ns=123456 with counters", end, CellEndKind)
	}

	// A corrupt line fails with its line number.
	buf.Reset()
	buf.WriteString("{\"cell\":\"a\",\"kind\":\"x\"}\nnot json\n")
	if _, err := ReadTrace(&buf); err == nil {
		t.Error("ReadTrace accepted a corrupt line")
	}
}

// TestRegistryConcurrentRecord merges profiles from many goroutines and
// checks the aggregate (run under -race in CI).
func TestRegistryConcurrentRecord(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Record(&CellProfile{
					Cell:     "c",
					WallNS:   int64(w*perWorker + i + 1),
					Counters: []CounterValue{{Name: "hypercall.mmu_update", Value: 2}},
				})
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("hypercall.mmu_update").Value(); got != workers*perWorker*2 {
		t.Errorf("aggregated counter = %d, want %d", got, workers*perWorker*2)
	}
	hists := reg.Histograms()
	if len(hists) != 1 || hists[0].Name != CellWallHistogram {
		t.Fatalf("histograms = %+v, want exactly %s", hists, CellWallHistogram)
	}
	h := hists[0]
	if h.Count != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count, workers*perWorker)
	}
	if h.Min != 1 || h.Max != workers*perWorker {
		t.Errorf("min/max = %d/%d, want 1/%d", h.Min, h.Max, workers*perWorker)
	}
	n := uint64(workers * perWorker)
	if wantSum := n * (n + 1) / 2; h.Sum != wantSum {
		t.Errorf("sum = %d, want %d", h.Sum, wantSum)
	}
}

// TestHistogramBuckets pins the power-of-two bucketing.
func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t")
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	snaps := reg.Histograms()
	if len(snaps) != 1 {
		t.Fatal("missing histogram snapshot")
	}
	s := snaps[0]
	if s.Count != 6 || s.Min != 0 || s.Max != 1000 {
		t.Errorf("count/min/max = %d/%d/%d, want 6/0/1000", s.Count, s.Min, s.Max)
	}
	// 0 -> bucket le 0; 1 -> le 2; 2,3 -> le 4; 4 -> le 8; 1000 -> le 1024.
	want := map[uint64]uint64{0: 1, 2: 1, 4: 2, 8: 1, 1024: 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want bounds %v", s.Buckets, want)
	}
	for _, b := range s.Buckets {
		if want[b.UpperBound] != b.Count {
			t.Errorf("bucket le %d: count %d, want %d", b.UpperBound, b.Count, want[b.UpperBound])
		}
	}
}

// TestKindStrings pins the wire names tooling greps for.
func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindHypercallEnter:   "hypercall_enter",
		KindHypercallExit:    "hypercall_exit",
		KindPageTypeGet:      "page_type_get",
		KindPageTypePut:      "page_type_put",
		KindValidationReject: "validation_reject",
		KindWalkDenied:       "walk_denied",
		KindInjectorOp:       "injector_op",
		KindInjectorState:    "injector_state",
		KindScenarioStep:     "scenario_step",
		KindVerdictEvidence:  "verdict_evidence",
		KindGrantOp:          "grant_op",
		KindDomctlOp:         "domctl_op",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}
