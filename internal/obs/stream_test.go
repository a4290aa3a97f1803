package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
)

// sseClient reads one /events stream and parses its frames.
type sseFrame struct {
	ID    string
	Event string
	Data  string
}

// readSSE consumes frames from the stream until n frames with data
// arrived or the stream ends. The retry preamble is skipped.
func readSSE(t *testing.T, r io.Reader, n int) []sseFrame {
	t.Helper()
	sc := bufio.NewScanner(r)
	var frames []sseFrame
	var cur sseFrame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.Data != "" || cur.Event != "" {
				frames = append(frames, cur)
				if len(frames) == n {
					return frames
				}
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			cur.ID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, "retry: "):
			// reconnection hint, not a frame
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return frames
}

func streamServer(t *testing.T) (*Server, *events.Bus, *events.Timeline, string) {
	t.Helper()
	bus := events.NewBus(64, 64)
	tl := events.NewTimeline(bus)
	srv := NewServer(nil)
	srv.SetBus(bus)
	srv.SetSchedule(tl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		bus.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, bus, tl, fmt.Sprintf("http://%s", addr)
}

// TestEventsSSE pins the wire format: id/event/data framing, the bus ID
// as the SSE event ID, and JSON payloads carrying the event fields.
func TestEventsSSE(t *testing.T) {
	_, bus, _, base := streamServer(t)

	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	bus.Publish(events.Event{Type: events.TypeBatchStarted, Worker: -1, Cells: 3})
	bus.Publish(events.Event{Type: events.TypeCellStarted, Cell: "4.6/x/exploit", Worker: 1, QueueNS: 42})

	frames := readSSE(t, resp.Body, 2)
	if len(frames) != 2 {
		t.Fatalf("got %d frames, want 2", len(frames))
	}
	if frames[0].ID != "1" || frames[0].Event != events.TypeBatchStarted {
		t.Fatalf("frame 0 = %+v", frames[0])
	}
	var ev events.Event
	if err := json.Unmarshal([]byte(frames[1].Data), &ev); err != nil {
		t.Fatalf("frame 1 data: %v", err)
	}
	if ev.ID != 2 || ev.Cell != "4.6/x/exploit" || ev.Worker != 1 || ev.QueueNS != 42 {
		t.Fatalf("frame 1 event = %+v", ev)
	}
}

// TestEventsLastEventIDReplay is the reconnect contract: a client that
// lost its connection resumes with Last-Event-ID and receives exactly
// the events it missed, then the live stream.
func TestEventsLastEventIDReplay(t *testing.T) {
	_, bus, _, base := streamServer(t)
	for i := 0; i < 6; i++ {
		bus.Publish(events.Event{Type: events.TypeCellStarted, Cell: fmt.Sprintf("c%d", i)})
	}

	req, _ := http.NewRequest("GET", base+"/events", nil)
	req.Header.Set("Last-Event-ID", "3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	bus.Publish(events.Event{Type: events.TypeCellFinished, Cell: "c-live"})

	frames := readSSE(t, resp.Body, 4)
	if len(frames) != 4 {
		t.Fatalf("got %d frames, want 4 (replay of 4..6 plus live 7)", len(frames))
	}
	for i, want := range []string{"4", "5", "6", "7"} {
		if frames[i].ID != want {
			t.Fatalf("frame %d: id %q, want %q", i, frames[i].ID, want)
		}
	}
	var last events.Event
	if err := json.Unmarshal([]byte(frames[3].Data), &last); err != nil {
		t.Fatal(err)
	}
	if last.Cell != "c-live" {
		t.Fatalf("live frame = %+v", last)
	}
}

// TestEventsGapNotice: a Last-Event-ID older than the retention window
// yields an explicit gap notice, not a silent skip.
func TestEventsGapNotice(t *testing.T) {
	bus := events.NewBus(2, 16)
	srv := NewServer(nil)
	srv.SetBus(bus)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		bus.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	for i := 0; i < 5; i++ {
		bus.Publish(events.Event{Type: events.TypeCellStarted})
	}
	req, _ := http.NewRequest("GET", fmt.Sprintf("http://%s/events", addr), nil)
	req.Header.Set("Last-Event-ID", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := readSSE(t, resp.Body, 3)
	if frames[0].Event != "gap" {
		t.Fatalf("first frame = %+v, want a gap notice", frames[0])
	}
	if frames[1].ID != "4" || frames[2].ID != "5" {
		t.Fatalf("replay after gap = %+v", frames[1:])
	}
}

// TestEventsShutdownDrains: Shutdown must terminate a connected SSE
// subscriber instead of waiting forever for the handler to return.
func TestEventsShutdownDrains(t *testing.T) {
	bus := events.NewBus(16, 16)
	srv := NewServer(nil)
	srv.SetBus(bus)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/events", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown with a live subscriber: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown wedged behind the SSE subscriber")
	}
	// The client-side stream ends too.
	if _, err := io.ReadAll(resp.Body); err != nil {
		// A reset is acceptable; a hang is not (ReadAll returning at
		// all is the assertion).
		t.Logf("stream closed with %v", err)
	}
}

// TestEventsBusCloseEndsStream: closing the bus (campaign over, no
// -serve) ends every connected stream with an `end` notice.
func TestEventsBusCloseEndsStream(t *testing.T) {
	_, bus, _, base := streamServer(t)
	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	bus.Publish(events.Event{Type: events.TypeCampaignDone, Worker: -1})
	bus.Close()
	frames := readSSE(t, resp.Body, 2)
	if len(frames) != 2 || frames[1].Event != "end" {
		t.Fatalf("frames = %+v, want campaign_done then end", frames)
	}
}

func TestEventsDisabled(t *testing.T) {
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	for _, path := range []string{"/events", "/schedule", "/cells"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s without a bus/timeline: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestScheduleEndpoint(t *testing.T) {
	_, _, tl, base := streamServer(t)
	tl.BatchQueued([]string{"a", "b"})
	tl.CellDispatched("a", 0, 10)
	tl.CellSettled("a", 0, 10, 100, nil, nil)

	resp, err := http.Get(base + "/schedule")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s events.Schedule
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Total != 2 || s.Completed != 1 || s.Queued != 1 {
		t.Fatalf("schedule = %+v", s)
	}
	if len(s.Workers) != 1 || s.Workers[0].Cells != 1 {
		t.Fatalf("workers = %+v", s.Workers)
	}
}

func TestPprofMounted(t *testing.T) {
	_, _, _, base := streamServer(t)
	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Fatalf("/debug/pprof/ index does not list profiles:\n%s", body)
	}
}

// TestStreamMetrics: the bus, scheduler and Go runtime gauges appear on
// /metrics alongside the campaign series. The timeline publishes the
// batch announcement on the bus it was built with.
func TestStreamMetrics(t *testing.T) {
	_, _, tl, base := streamServer(t)
	tl.BatchQueued([]string{"a"})

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		"repro_events_published_total 1",
		"repro_events_dropped_total 0",
		"repro_events_subscribers",
		"repro_sched_cells_total 1",
		"repro_sched_queue_depth 1",
		"repro_sched_utilization",
		"repro_sched_eta_ns",
		"repro_go_goroutines",
		"repro_go_heap_alloc_bytes",
		"repro_go_gc_cycles_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestEventsSlowConsumerDropNotice: a subscriber that reads slower than
// the bus publishes sees its losses surfaced in-band.
func TestEventsSlowConsumerDropNotice(t *testing.T) {
	bus := events.NewBus(1024, 2) // tiny per-subscriber buffer
	srv := NewServer(nil)
	srv.SetBus(bus)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	resp, err := http.Get(fmt.Sprintf("http://%s/events", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Give the handler a moment to subscribe, then flood far past the
	// 2-slot buffer before it can drain: drops are guaranteed.
	deadline := time.Now().Add(2 * time.Second)
	for bus.Stats().Subscribers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 500; i++ {
		bus.Publish(events.Event{Type: events.TypeCellStarted})
	}
	bus.Close()

	sawDrops := false
	for _, f := range readSSE(t, resp.Body, 600) {
		if f.Event == "drops" {
			sawDrops = true
			var d struct {
				Dropped uint64 `json:"dropped"`
			}
			if err := json.Unmarshal([]byte(f.Data), &d); err != nil || d.Dropped == 0 {
				t.Fatalf("malformed drops notice %q (err %v)", f.Data, err)
			}
			break
		}
	}
	if !sawDrops {
		if bus.Stats().Dropped == 0 {
			t.Skip("scheduler drained every event; no drops to surface")
		}
		t.Fatal("drops occurred but no drops notice reached the stream")
	}
}
