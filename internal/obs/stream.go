package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"

	"repro/internal/events"
)

// The live stream surfaces: SSE /events over the campaign event bus
// (monotonic IDs, Last-Event-ID replay from the bus's retained ring,
// per-connection drop notices) and /schedule over the wall-clock
// scheduler timeline. Both are wall-side observability — nothing
// served here feeds a deterministic artifact.

// SetBus installs the campaign event bus; /events streams it and
// /metrics gains the repro_events_* gauges. Call before Listen; nil
// (the default) makes /events report that streaming is disabled.
func (s *Server) SetBus(b *events.Bus) { s.bus = b }

// SetSchedule installs the wall-clock scheduler timeline; /cells
// serves its live per-cell states, /schedule its snapshots, and
// /metrics gains the repro_sched_* gauges. Call before Listen; nil (the
// default) makes /cells and /schedule report that the timeline is
// disabled.
func (s *Server) SetSchedule(t *events.Timeline) { s.sched = t }

// handleEvents serves the bus as an SSE stream. A reconnecting client
// sends Last-Event-ID and replays the retained ring from there —
// gapless within the retention window, with an explicit `gap` notice
// when retention no longer reaches the requested ID. A client that
// reads slower than the campaign publishes loses events instead of
// blocking the workers; the loss is surfaced in-band as `drops`
// notices carrying the connection's cumulative drop count.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.bus == nil {
		http.Error(w, "event streaming is disabled (run with -listen)", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported by this connection", http.StatusInternalServerError)
		return
	}
	after := ^uint64(0) // live-only by default
	if lid := r.Header.Get("Last-Event-ID"); lid != "" {
		v, perr := strconv.ParseUint(lid, 10, 64)
		if perr != nil {
			http.Error(w, "Last-Event-ID: want a decimal event ID", http.StatusBadRequest)
			return
		}
		after = v
	}
	sub, replay, gap := s.bus.SubscribeFrom(after)
	defer s.bus.Unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "retry: 1000\n\n")
	if gap {
		// Events between the client's last ID and the ring's oldest
		// retained event are gone; say so instead of silently skipping.
		fmt.Fprintf(w, "event: gap\ndata: {\"resumed_after\":%d}\n\n", after)
	}
	for _, ev := range replay {
		writeSSE(w, ev)
	}
	fl.Flush()

	var notedDrops uint64
	for {
		select {
		case ev, open := <-sub.C():
			if !open {
				// Bus closed: the campaign is over and the process is
				// draining subscribers.
				fmt.Fprintf(w, "event: end\ndata: {}\n\n")
				fl.Flush()
				return
			}
			writeSSE(w, ev)
			if d := sub.Dropped(); d > notedDrops {
				notedDrops = d
				fmt.Fprintf(w, "event: drops\ndata: {\"dropped\":%d}\n\n", d)
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.quit:
			// Server shutdown: terminate the stream so Shutdown's drain
			// of in-flight requests can complete.
			return
		}
	}
}

// writeSSE frames one bus event as an SSE message. The bus ID doubles
// as the SSE event ID, which is what makes Last-Event-ID resumption
// line up with the retention ring.
func writeSSE(w io.Writer, ev events.Event) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, data)
}

func (s *Server) handleSchedule(w http.ResponseWriter, _ *http.Request) {
	if s.sched == nil {
		http.Error(w, "scheduler timeline is disabled (run with -listen or -schedule)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.sched.Snapshot())
}

// writeBusMetrics renders the event bus counters as gauges.
func writeBusMetrics(w io.Writer, st events.Stats) {
	fmt.Fprintf(w, "# HELP repro_events_published_total Events published on the campaign bus.\n")
	fmt.Fprintf(w, "# TYPE repro_events_published_total counter\n")
	fmt.Fprintf(w, "repro_events_published_total %d\n", st.Published)
	fmt.Fprintf(w, "# HELP repro_events_dropped_total Per-subscriber event deliveries lost to full buffers.\n")
	fmt.Fprintf(w, "# TYPE repro_events_dropped_total counter\n")
	fmt.Fprintf(w, "repro_events_dropped_total %d\n", st.Dropped)
	fmt.Fprintf(w, "# HELP repro_events_subscribers Current bus subscriptions.\n")
	fmt.Fprintf(w, "# TYPE repro_events_subscribers gauge\n")
	fmt.Fprintf(w, "repro_events_subscribers %d\n", st.Subscribers)
	fmt.Fprintf(w, "# HELP repro_events_retained Events currently replayable via Last-Event-ID.\n")
	fmt.Fprintf(w, "# TYPE repro_events_retained gauge\n")
	fmt.Fprintf(w, "repro_events_retained %d\n", st.Retained)
}

// writeSchedMetrics renders the live scheduler gauges.
func writeSchedMetrics(w io.Writer, s events.Schedule) {
	gauge := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
		fmt.Fprintf(w, "# TYPE %s gauge\n", name)
		fmt.Fprintf(w, "%s %v\n", name, v)
	}
	gauge("repro_sched_cells_total", "Cells announced to the scheduler.", s.Total)
	gauge("repro_sched_queue_depth", "Cells announced but not yet dispatched.", s.Queued)
	gauge("repro_sched_running", "Cells currently owned by a worker.", s.Running)
	gauge("repro_sched_completed", "Cells settled.", s.Completed)
	gauge("repro_sched_failed", "Cells settled with a failure record.", s.Failed)
	gauge("repro_sched_utilization", "Worker-pool busy fraction over the observed makespan (0..1).", fmt.Sprintf("%.6f", s.Utilization))
	gauge("repro_sched_avg_queue_ns", "Average announce-to-dispatch wait of settled cells.", s.AvgQueueNS)
	gauge("repro_sched_avg_run_ns", "Average dispatch-to-settle run time of settled cells.", s.AvgRunNS)
	gauge("repro_sched_eta_ns", "Estimated remaining campaign wall time.", s.ETANS)
}

// writeRuntimeMetrics renders the Go runtime gauges: goroutines, heap
// occupancy and GC activity, the process-health counterpart to the
// campaign series.
func writeRuntimeMetrics(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# HELP repro_go_goroutines Current goroutine count.\n")
	fmt.Fprintf(w, "# TYPE repro_go_goroutines gauge\n")
	fmt.Fprintf(w, "repro_go_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "# HELP repro_go_heap_alloc_bytes Bytes of allocated heap objects.\n")
	fmt.Fprintf(w, "# TYPE repro_go_heap_alloc_bytes gauge\n")
	fmt.Fprintf(w, "repro_go_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "# HELP repro_go_heap_objects Number of allocated heap objects.\n")
	fmt.Fprintf(w, "# TYPE repro_go_heap_objects gauge\n")
	fmt.Fprintf(w, "repro_go_heap_objects %d\n", ms.HeapObjects)
	fmt.Fprintf(w, "# HELP repro_go_gc_cycles_total Completed GC cycles.\n")
	fmt.Fprintf(w, "# TYPE repro_go_gc_cycles_total counter\n")
	fmt.Fprintf(w, "repro_go_gc_cycles_total %d\n", ms.NumGC)
	fmt.Fprintf(w, "# HELP repro_go_gc_pause_total_ns Cumulative GC stop-the-world pause time.\n")
	fmt.Fprintf(w, "# TYPE repro_go_gc_pause_total_ns counter\n")
	fmt.Fprintf(w, "repro_go_gc_pause_total_ns %d\n", ms.PauseTotalNs)
}
