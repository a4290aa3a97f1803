package events

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// TestTimelineEventShapes pins what the timeline publishes for each
// hook and that /cells carries the same facts as the terminal events.
func TestTimelineEventShapes(t *testing.T) {
	b := NewBus(64, 64)
	sub := b.Subscribe()
	tl := NewTimeline(b)

	tl.BatchQueued([]string{"a", "b"})
	tl.CellDispatched("a", 2, 123)
	rec := telemetry.NewRecorder(0)
	rec.HypercallEnter(1, 1, telemetry.NewOp("hypercall", "mmu_update"))
	rec.HypercallExit(1, 1, telemetry.NewOp("hypercall", "mmu_update"), nil)
	profile := rec.Profile("a", 456)
	tl.CellSettled("a", 2, 123, 789, profile, nil)
	tl.CellSettled("b", 1, 50, 60, nil,
		&campaign.CellError{Cell: "b", Class: campaign.FailHang, Message: "watchdog"})
	tl.CampaignDone()

	got := drain(sub)
	if len(got) != 5 {
		t.Fatalf("published %d events, want 5", len(got))
	}
	if got[0].Type != TypeBatchStarted || got[0].Cells != 2 || got[0].Worker != -1 {
		t.Fatalf("batch event = %+v", got[0])
	}
	if got[1].Type != TypeCellStarted || got[1].Cell != "a" || got[1].Worker != 2 || got[1].QueueNS != 123 {
		t.Fatalf("start event = %+v", got[1])
	}
	fin := got[2]
	if fin.Type != TypeCellFinished || fin.Cell != "a" || fin.WallNS != 789 || fin.Class != "" {
		t.Fatalf("finish event = %+v", fin)
	}
	if fin.Events == 0 {
		t.Fatalf("finish event lost the profile's telemetry count: %+v", fin)
	}
	fail := got[3]
	if fail.Class != string(campaign.FailHang) || fail.Error != "watchdog" {
		t.Fatalf("failure event = %+v", fail)
	}
	if fail.Events != 0 || fail.Dropped != 0 {
		t.Fatalf("unprofiled failure carries telemetry counts: %+v", fail)
	}
	done := got[4]
	if done.Type != TypeCampaignDone || done.Cells != 2 || done.Failed != 1 {
		t.Fatalf("done event = %+v", done)
	}

	want := []CellState{
		{Cell: "a", Status: StatusDone, WallNS: 789, Events: fin.Events, Dropped: fin.Dropped},
		{Cell: "b", Status: StatusError, WallNS: 60, Class: string(campaign.FailHang), Error: "watchdog"},
	}
	if cells := tl.Cells(); len(cells) != 2 || cells[0] != want[0] || cells[1] != want[1] {
		t.Fatalf("cells = %+v, want %+v", cells, want)
	}
}

// TestTimelineViewsAgree runs seeded chaos matrices — panics, hangs,
// forced errors — with the timeline on a bus, then replays the bus
// from ID 0. The three views of one lifecycle must agree: exactly one
// cell_finished per cell; each cell's Cells() status, class and error
// match its cell_finished and its matrix entry's failure record; and
// campaign_done carries the schedule's settled and failed counts.
func TestTimelineViewsAgree(t *testing.T) {
	totalFailed := 0
	for _, seed := range []int64{1, 7, 99} {
		plan := faults.NewPlan(seed, faults.DefaultDensity)
		bus := NewBus(0, 0)
		tl := NewTimeline(bus)
		r := &campaign.Runner{Workers: 8, ContinueOnError: true, Faults: plan, Sched: tl}
		entries, err := r.RunMatrixContext(context.Background())
		plan.ReleaseAll()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tl.CampaignDone()
		_, replay, gap := bus.SubscribeFrom(0)
		bus.Close()
		if gap {
			t.Fatalf("seed %d: replay from 0 reports a retention gap", seed)
		}

		finished := make(map[string]Event)
		finishes := make(map[string]int)
		var done []Event
		for _, ev := range replay {
			switch ev.Type {
			case TypeCellFinished:
				finished[ev.Cell] = ev
				finishes[ev.Cell]++
			case TypeCampaignDone:
				done = append(done, ev)
			}
		}
		states := make(map[string]CellState)
		for _, c := range tl.Cells() {
			states[c.Cell] = c
		}
		if len(states) != len(entries) || len(finishes) != len(entries) {
			t.Fatalf("seed %d: %d cells tracked, %d finished, matrix has %d", seed, len(states), len(finishes), len(entries))
		}

		failed := 0
		for _, e := range entries {
			id := e.Version + "/" + e.UseCase + "/" + string(e.Mode)
			if n := finishes[id]; n != 1 {
				t.Errorf("seed %d: cell %s finished %d times, want exactly 1", seed, id, n)
			}
			status, class, msg := StatusDone, "", ""
			if e.Err != nil {
				status, class, msg = StatusError, string(e.Err.Class), e.Err.Message
				failed++
			}
			ev, c := finished[id], states[id]
			if ev.Class != class || ev.Error != msg {
				t.Errorf("seed %d: cell %s cell_finished class %q error %q, entry %q %q", seed, id, ev.Class, ev.Error, class, msg)
			}
			if c.Status != status || c.Class != class || c.Error != msg {
				t.Errorf("seed %d: cell %s state %s/%q/%q, entry %s/%q/%q", seed, id, c.Status, c.Class, c.Error, status, class, msg)
			}
			if c.WallNS != ev.WallNS || c.Events != ev.Events || c.Dropped != ev.Dropped {
				t.Errorf("seed %d: cell %s state %+v disagrees with its cell_finished %+v", seed, id, c, ev)
			}
		}
		totalFailed += failed

		s := tl.Snapshot()
		if s.Completed != len(entries) || s.Failed != failed {
			t.Errorf("seed %d: schedule settled %d failed %d, matrix %d failed %d", seed, s.Completed, s.Failed, len(entries), failed)
		}
		if len(done) != 1 || done[0].Cells != s.Completed || done[0].Failed != s.Failed {
			t.Errorf("seed %d: campaign_done events %+v, want one with cells %d failed %d", seed, done, s.Completed, s.Failed)
		}
	}
	if totalFailed == 0 {
		t.Fatal("no chaos plan failed a cell; the failure paths went unexercised")
	}
}

func TestTimelineSnapshot(t *testing.T) {
	tl := NewTimeline(nil)
	tl.BatchQueued([]string{"a", "b", "c", "d"})
	tl.CellDispatched("a", 0, 100)
	tl.CellDispatched("b", 1, 200)
	tl.CellSettled("a", 0, 100, 1000, nil, nil)
	tl.CellSettled("b", 1, 200, 2000, nil, &campaign.CellError{Cell: "b", Class: campaign.FailPanic, Message: "boom"})
	tl.CellDispatched("c", 0, 300)

	s := tl.Snapshot()
	if s.Total != 4 || s.Completed != 2 || s.Running != 1 || s.Queued != 1 || s.Failed != 1 {
		t.Fatalf("snapshot counts = total %d completed %d running %d queued %d failed %d",
			s.Total, s.Completed, s.Running, s.Queued, s.Failed)
	}
	if s.AvgQueueNS != 150 || s.AvgRunNS != 1500 {
		t.Fatalf("avg queue %d avg run %d, want 150/1500", s.AvgQueueNS, s.AvgRunNS)
	}
	if s.Utilization < 0 || s.Utilization > 1 {
		t.Fatalf("utilization %v out of [0,1]", s.Utilization)
	}
	if s.ETANS <= 0 {
		t.Fatalf("ETA %d, want > 0 with 2 cells remaining", s.ETANS)
	}
	if len(s.Workers) != 2 {
		t.Fatalf("%d worker lanes, want 2", len(s.Workers))
	}
	w0 := s.Workers[0]
	if w0.Worker != 0 || w0.Cells != 1 {
		t.Fatalf("lane 0 = %+v, want worker 0 with 1 settled cell", w0)
	}
	if w0.BusyNS < 1000 {
		t.Fatalf("lane 0 busy %d, want >= 1000 (settled run plus the in-flight cell)", w0.BusyNS)
	}
	found := false
	for _, slot := range s.Workers[1].Slots {
		if slot.Cell == "b" && slot.Class == string(campaign.FailPanic) {
			found = true
		}
	}
	if !found {
		t.Fatal("failed cell b missing its failure class in lane 1")
	}
}

// TestTimelineUndispatchedCancel mirrors the engine's cancel path:
// cells settled without a dispatch land on the synthetic -1 lane and
// still count toward completion.
func TestTimelineUndispatchedCancel(t *testing.T) {
	tl := NewTimeline(nil)
	tl.BatchQueued([]string{"a", "b"})
	tl.CellDispatched("a", 0, 10)
	tl.CellSettled("a", 0, 10, 500, nil, nil)
	tl.CellSettled("b", -1, 0, 0, nil, &campaign.CellError{Cell: "b", Class: campaign.FailCanceled, Message: "ctx"})

	s := tl.Snapshot()
	if s.Completed != 2 || s.Failed != 1 || s.Queued != 0 || s.Running != 0 {
		t.Fatalf("counts = %+v", s)
	}
	if len(s.Workers) != 2 || s.Workers[0].Worker != -1 {
		t.Fatalf("want a -1 lane first, got %+v", s.Workers)
	}
	// The undispatched lane never contributes occupancy.
	if s.Workers[0].BusyNS != 0 {
		t.Fatalf("-1 lane busy %d, want 0", s.Workers[0].BusyNS)
	}
	sum := RenderSummary(s)
	if !strings.Contains(sum, "undispatched: 1 cells canceled before pickup") {
		t.Fatalf("summary missing the undispatched line:\n%s", sum)
	}
}

func TestTimelineWriteChrome(t *testing.T) {
	tl := NewTimeline(nil)
	tl.BatchQueued([]string{"a", "b", "c"})
	for i, c := range []string{"a", "b", "c"} {
		w := i % 2
		tl.CellDispatched(c, w, int64(i)*100)
		tl.CellSettled(c, w, int64(i)*100, int64(i+1)*1000, nil, nil)
	}
	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Schedule    Schedule         `json:"schedule"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	var xEvents, meta int
	for _, ev := range f.TraceEvents {
		switch ev["ph"] {
		case "X":
			xEvents++
			if ev["cat"] != "cell" {
				t.Fatalf("X event without cell cat: %+v", ev)
			}
		case "M":
			meta++
		}
	}
	if xEvents != 3 {
		t.Fatalf("%d complete events, want 3", xEvents)
	}
	if meta != 3 { // process_name + 2 worker tracks
		t.Fatalf("%d metadata events, want 3", meta)
	}
	if f.Schedule.Completed != 3 {
		t.Fatalf("embedded schedule settled %d, want 3", f.Schedule.Completed)
	}
}

func TestRenderSummary(t *testing.T) {
	tl := NewTimeline(nil)
	tl.BatchQueued([]string{"a"})
	tl.CellDispatched("a", 0, 50)
	tl.CellSettled("a", 0, 50, 1000, nil, nil)
	sum := RenderSummary(tl.Snapshot())
	for _, want := range []string{
		"WALL SCHEDULE SUMMARY",
		"cells: 1 settled, 0 failed",
		"wall critical path: worker 0",
		"worker 0: 1 cells",
		"utilization:",
		"avg queue wait:",
	} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}
