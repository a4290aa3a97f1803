package events

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// Timeline is the wall-clock scheduler timeline: it implements
// campaign.SchedObserver and accumulates, per worker, which cells the
// worker ran, when, and how long each waited in the queue. It backs
// the /schedule endpoint, the scheduler gauges on /metrics, and the
// -schedule Perfetto export. Everything it measures is wall time —
// two runs of the same campaign produce different timelines, which is
// exactly why none of it ever reaches a deterministic artifact.
type Timeline struct {
	epoch time.Time

	mu         sync.Mutex
	total      int // cells announced
	dispatched int
	running    map[string]runningCell
	slots      []Slot
	failed     int
	sumQueue   int64
	sumRun     int64
}

// runningCell is a dispatched, unsettled cell.
type runningCell struct {
	worker  int
	startNS int64
	queueNS int64
}

// Slot is one settled cell's occupancy record: which worker ran it,
// where on the wall clock, and how it ended.
type Slot struct {
	Cell string `json:"cell"`
	// Worker is the owning worker index, -1 for cells canceled before
	// dispatch.
	Worker int `json:"worker"`
	// StartNS is the dispatch time relative to the timeline epoch.
	StartNS int64 `json:"start_ns"`
	// QueueNS is the announce→dispatch wait.
	QueueNS int64 `json:"queue_ns"`
	// RunNS is the dispatch→settle run time.
	RunNS int64 `json:"run_ns"`
	// Class is the failure class for failed cells, empty on success.
	Class string `json:"class,omitempty"`
}

// NewTimeline creates a timeline with its epoch at the call.
func NewTimeline() *Timeline {
	return &Timeline{epoch: time.Now(), running: make(map[string]runningCell)}
}

var _ campaign.SchedObserver = (*Timeline)(nil)

// BatchQueued implements campaign.SchedObserver.
func (t *Timeline) BatchQueued(cells []string) {
	t.mu.Lock()
	t.total += len(cells)
	t.mu.Unlock()
}

// CellDispatched implements campaign.SchedObserver.
func (t *Timeline) CellDispatched(cell string, worker int, queueNS int64) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.dispatched++
	t.running[cell] = runningCell{worker: worker, startNS: now, queueNS: queueNS}
	t.mu.Unlock()
}

// CellSettled implements campaign.SchedObserver.
func (t *Timeline) CellSettled(cell string, worker int, queueNS, runNS int64, _ *telemetry.CellProfile, cerr *campaign.CellError) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	slot := Slot{Cell: cell, Worker: worker, StartNS: now - runNS, QueueNS: queueNS, RunNS: runNS}
	if rc, ok := t.running[cell]; ok {
		slot.StartNS = rc.startNS
		delete(t.running, cell)
	}
	if cerr != nil {
		slot.Class = string(cerr.Class)
		t.failed++
	}
	// A cell settled without a CellDispatched (canceled before any
	// worker picked it up) still counts toward completion, but never
	// occupied a worker; it keeps Worker == -1.
	if slot.Worker < 0 {
		slot.StartNS = now
	}
	t.slots = append(t.slots, slot)
	t.sumQueue += slot.QueueNS
	t.sumRun += slot.RunNS
}

// WorkerLane is one worker's occupancy in a Schedule snapshot.
type WorkerLane struct {
	Worker int `json:"worker"`
	// Cells is how many cells the worker settled.
	Cells int `json:"cells"`
	// BusyNS is the worker's total run-time occupancy.
	BusyNS int64 `json:"busy_ns"`
	// Slots are the worker's settled cells in settle order.
	Slots []Slot `json:"slots"`
}

// Schedule is a point-in-time snapshot of the wall schedule, the
// /schedule wire format and the summary's input.
type Schedule struct {
	// ElapsedNS is wall time since the timeline epoch.
	ElapsedNS int64 `json:"elapsed_ns"`
	// Total/Running/Queued/Completed/Failed count cells by state.
	Total     int `json:"total"`
	Running   int `json:"running"`
	Queued    int `json:"queued"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// Workers is the per-worker occupancy, ordered by worker index.
	// Undispatched cancels appear as worker -1.
	Workers []WorkerLane `json:"workers"`
	// MakespanNS is first dispatch → last settle (the observed wall
	// critical path of the schedule so far).
	MakespanNS int64 `json:"makespan_ns"`
	// Utilization is busy time over worker-lane capacity across the
	// makespan, 0..1.
	Utilization float64 `json:"utilization"`
	// AvgQueueNS / AvgRunNS average the settled cells' queue waits and
	// run times.
	AvgQueueNS int64 `json:"avg_queue_ns"`
	AvgRunNS   int64 `json:"avg_run_ns"`
	// ETANS estimates remaining wall time from the average run time and
	// the observed worker parallelism; 0 once the campaign is done.
	ETANS int64 `json:"eta_ns"`
}

// Snapshot captures the schedule as of now.
func (t *Timeline) Snapshot() Schedule {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()

	s := Schedule{
		ElapsedNS: now,
		Total:     t.total,
		Running:   len(t.running),
		Completed: len(t.slots),
		Failed:    t.failed,
	}
	s.Queued = s.Total - s.Running - s.Completed

	lanes := make(map[int]*WorkerLane)
	var first, last int64 = -1, 0
	for _, slot := range t.slots {
		ln := lanes[slot.Worker]
		if ln == nil {
			ln = &WorkerLane{Worker: slot.Worker}
			lanes[slot.Worker] = ln
		}
		ln.Cells++
		ln.BusyNS += slot.RunNS
		ln.Slots = append(ln.Slots, slot)
		if slot.Worker >= 0 {
			if first < 0 || slot.StartNS < first {
				first = slot.StartNS
			}
			if end := slot.StartNS + slot.RunNS; end > last {
				last = end
			}
		}
	}
	for _, rc := range t.running {
		ln := lanes[rc.worker]
		if ln == nil {
			ln = &WorkerLane{Worker: rc.worker}
			lanes[rc.worker] = ln
		}
		ln.BusyNS += now - rc.startNS
		if first < 0 || rc.startNS < first {
			first = rc.startNS
		}
		if now > last {
			last = now
		}
	}
	for _, ln := range lanes {
		s.Workers = append(s.Workers, *ln)
	}
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].Worker < s.Workers[j].Worker })

	if first >= 0 && last > first {
		s.MakespanNS = last - first
	}
	realLanes := 0
	var busy int64
	for _, ln := range s.Workers {
		if ln.Worker >= 0 {
			realLanes++
			busy += ln.BusyNS
		}
	}
	if s.MakespanNS > 0 && realLanes > 0 {
		s.Utilization = float64(busy) / float64(s.MakespanNS*int64(realLanes))
		if s.Utilization > 1 {
			s.Utilization = 1
		}
	}
	if n := len(t.slots); n > 0 {
		s.AvgQueueNS = t.sumQueue / int64(n)
		s.AvgRunNS = t.sumRun / int64(n)
	}
	if remaining := s.Total - s.Completed; remaining > 0 && realLanes > 0 && s.AvgRunNS > 0 {
		s.ETANS = int64(remaining) * s.AvgRunNS / int64(realLanes)
	}
	return s
}

// WriteChrome writes the wall schedule as Chrome trace-event JSON in
// object form ({"traceEvents": [...], "schedule": {...}}), which
// Perfetto and chrome://tracing load directly: one track per worker,
// one complete event per settled cell, queue wait and failure class in
// args, and the Schedule snapshot embedded for tracecheck sched.
func (t *Timeline) WriteChrome(w io.Writer) error {
	s := t.Snapshot()
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\": [\n")
	first := true
	emit := func(ev map[string]any) error {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		raw, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		_, err = bw.Write(raw)
		return err
	}
	if err := emit(map[string]any{
		"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
		"args": map[string]any{"name": "repro wall schedule"},
	}); err != nil {
		return err
	}
	for _, ln := range s.Workers {
		name := fmt.Sprintf("worker %d", ln.Worker)
		if ln.Worker < 0 {
			name = "undispatched"
		}
		if err := emit(map[string]any{
			"name": "thread_name", "ph": "M", "pid": 1, "tid": ln.Worker + 1,
			"args": map[string]any{"name": name},
		}); err != nil {
			return err
		}
		for _, slot := range ln.Slots {
			args := map[string]any{"queue_us": float64(slot.QueueNS) / 1e3}
			if slot.Class != "" {
				args["class"] = slot.Class
			}
			if err := emit(map[string]any{
				"name": slot.Cell, "cat": "cell", "ph": "X",
				"ts":  float64(slot.StartNS) / 1e3,
				"dur": float64(slot.RunNS) / 1e3,
				"pid": 1, "tid": ln.Worker + 1,
				"args": args,
			}); err != nil {
				return err
			}
		}
	}
	bw.WriteString("\n], \"schedule\": ")
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	bw.Write(raw)
	bw.WriteString("}\n")
	return bw.Flush()
}

// fmtNS renders a nanosecond quantity human-readably.
func fmtNS(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// RenderSummary renders a Schedule as the text block `repro -schedule`
// prints and `tracecheck sched` recomputes: per-worker occupancy, the
// observed wall critical path (the makespan and the busiest lane), and
// the queue-wait/utilization aggregates.
func RenderSummary(s Schedule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "WALL SCHEDULE SUMMARY\n")
	fmt.Fprintf(&b, "  cells: %d settled, %d failed", s.Completed, s.Failed)
	if s.Running > 0 || s.Queued > 0 {
		fmt.Fprintf(&b, " (%d running, %d queued)", s.Running, s.Queued)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  makespan: %s  utilization: %.1f%%  avg queue wait: %s  avg run: %s\n",
		fmtNS(s.MakespanNS), s.Utilization*100, fmtNS(s.AvgQueueNS), fmtNS(s.AvgRunNS))
	var busiest *WorkerLane
	for i := range s.Workers {
		ln := &s.Workers[i]
		if ln.Worker < 0 {
			continue
		}
		if busiest == nil || ln.BusyNS > busiest.BusyNS {
			busiest = ln
		}
	}
	if busiest != nil {
		fmt.Fprintf(&b, "  wall critical path: worker %d busy %s over %d cells\n",
			busiest.Worker, fmtNS(busiest.BusyNS), busiest.Cells)
	}
	for _, ln := range s.Workers {
		if ln.Worker < 0 {
			fmt.Fprintf(&b, "  undispatched: %d cells canceled before pickup\n", ln.Cells)
			continue
		}
		fmt.Fprintf(&b, "  worker %d: %d cells, busy %s\n", ln.Worker, ln.Cells, fmtNS(ln.BusyNS))
	}
	return b.String()
}
