// Package obs is the live campaign observability layer: an HTTP server
// exposing a running campaign's metrics registry and per-cell progress
// (Prometheus text on /metrics, JSON on /cells, liveness on /healthz),
// plus a flight recorder that dumps a failing cell's bounded event ring
// to disk the moment the engine settles the failure. Both plug into the
// campaign engine through the campaign.Progress hook and cost nothing
// when not installed.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/events"
	"repro/internal/ledger"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// CellStatus is a cell's live lifecycle state.
type CellStatus string

// Cell lifecycle states.
const (
	// StatusPending means the cell is announced but not yet dispatched.
	StatusPending CellStatus = "pending"
	// StatusRunning means a worker owns the cell right now.
	StatusRunning CellStatus = "running"
	// StatusDone means the cell finished cleanly.
	StatusDone CellStatus = "done"
	// StatusError means the cell settled with a failure record.
	StatusError CellStatus = "error"
)

// CellState is one cell's live status, the /cells wire format.
type CellState struct {
	Cell   string     `json:"cell"`
	Status CellStatus `json:"status"`
	// WallNS is the cell's wall time once settled.
	WallNS int64 `json:"wall_ns,omitempty"`
	// Class and Error describe the failure for StatusError cells.
	Class string `json:"class,omitempty"`
	Error string `json:"error,omitempty"`
	// Events and Dropped carry the cell's telemetry activity — emitted
	// event count and ring/sink losses — when the runner profiled it.
	Events  uint64 `json:"events,omitempty"`
	Dropped uint64 `json:"dropped,omitempty"`
}

// Server is the observability HTTP server. It implements
// campaign.Progress; install it on the Runner and Listen before the
// campaign starts. All methods are safe for concurrent use.
type Server struct {
	reg    *telemetry.Registry
	spans  *span.Collector
	cov    *coverage.Collector
	runID  string
	ledger *ledger.Store
	bus    *events.Bus
	sched  *events.Timeline

	mu    sync.Mutex
	cells map[string]*CellState
	order []string

	srv  *http.Server
	ln   net.Listener
	quit chan struct{}
	stop sync.Once
}

// NewServer creates a server over the given registry (nil is allowed:
// /metrics then exposes no series until cells carry profiles).
func NewServer(reg *telemetry.Registry) *Server {
	s := &Server{reg: reg, cells: make(map[string]*CellState), quit: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/cells", s.handleCells)
	mux.HandleFunc("/spans", s.handleSpans)
	mux.HandleFunc("/coverage", s.handleCoverage)
	mux.HandleFunc("/runs", s.handleRuns)
	mux.HandleFunc("/runs/", s.handleRun)
	mux.HandleFunc("/runs/diff", s.handleRunsDiff)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/schedule", s.handleSchedule)
	// The pprof handlers normally self-register on DefaultServeMux;
	// mount them explicitly since this server owns its own mux.
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	s.srv = &http.Server{Handler: mux}
	return s
}

// SetRunID installs the campaign's content-addressed run identity;
// /healthz reports it and /metrics exports the repro_run_info gauge so
// scrapes from concurrent campaigns are distinguishable. Call before
// Listen.
func (s *Server) SetRunID(id string) { s.runID = id }

// SetLedger installs the campaign's run-record store; the /runs
// endpoints serve its records (live — the journal is written as cells
// settle). Call before Listen; nil (the default) makes /runs report
// that the ledger is disabled.
func (s *Server) SetLedger(st *ledger.Store) { s.ledger = st }

// SetSpans installs the campaign's span collector; /spans serves its
// live forest. Call before Listen; nil (the default) makes /spans
// report that span collection is disabled.
func (s *Server) SetSpans(c *span.Collector) { s.spans = c }

// SetCoverage installs the campaign's coverage collector; /coverage
// serves its live report and /metrics gains coverage_edges_total per
// family. Call before Listen; nil (the default) makes /coverage report
// that coverage is disabled.
func (s *Server) SetCoverage(c *coverage.Collector) { s.cov = c }

// Listen binds the address and starts serving in the background,
// returning the bound address (useful with ":0"). Call Shutdown to
// stop.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.ln = ln
	go func() {
		// ErrServerClosed is the orderly-shutdown sentinel; anything
		// else would have surfaced to clients already.
		_ = s.srv.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Shutdown drains in-flight requests and stops the server. SSE
// subscribers are actively terminated first — Shutdown waits for
// in-flight handlers, and a streaming handler would otherwise hold its
// connection open until the client walked away.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stop.Do(func() { close(s.quit) })
	return s.srv.Shutdown(ctx)
}

// BatchStarted implements campaign.Progress: the announced cells seed
// the /cells listing as pending, in cell order.
func (s *Server) BatchStarted(cells []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range cells {
		s.track(id)
	}
}

// CellStarted implements campaign.Progress.
func (s *Server) CellStarted(cell string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.track(cell).Status = StatusRunning
}

// CellFinished implements campaign.Progress. The profile, when the
// runner salvaged one, enriches /cells with the cell's live telemetry
// activity: how many events it emitted and how many its bounded ring
// (or streaming sink) lost.
func (s *Server) CellFinished(cell string, wall time.Duration, profile *telemetry.CellProfile, cerr *campaign.CellError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.track(cell)
	st.WallNS = wall.Nanoseconds()
	if profile != nil {
		st.Events = uint64(len(profile.Events)) + profile.DroppedEvents
		st.Dropped = profile.DroppedEvents
	}
	if cerr != nil {
		st.Status = StatusError
		st.Class = string(cerr.Class)
		st.Error = cerr.Message
		return
	}
	st.Status = StatusDone
}

// track returns the cell's state, creating it as pending on first
// sight (single cells run via Runner.RunContext never see a BatchStarted).
// Callers hold s.mu.
func (s *Server) track(cell string) *CellState {
	if st, ok := s.cells[cell]; ok {
		return st
	}
	st := &CellState{Cell: cell, Status: StatusPending}
	s.cells[cell] = st
	s.order = append(s.order, cell)
	return st
}

// snapshot copies the cell states in announcement order.
func (s *Server) snapshot() []CellState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CellState, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.cells[id])
	}
	return out
}

// HealthInfo is the /healthz wire format: liveness plus the build
// identity, so a scrape can tell which binary is answering.
type HealthInfo struct {
	Status           string `json:"status"`
	Version          string `json:"version"`
	GoVersion        string `json:"go_version"`
	SnapshotsEnabled bool   `json:"snapshots_enabled"`
	// RunID is the campaign's content-addressed run identity, empty when
	// the serving binary did not compute one.
	RunID string `json:"run_id,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(HealthInfo{
		Status:           "ok",
		Version:          buildinfo.Version,
		GoVersion:        buildinfo.GoVersion(),
		SnapshotsEnabled: campaign.SnapshotsEnabled(),
		RunID:            s.runID,
	})
}

func (s *Server) handleCoverage(w http.ResponseWriter, _ *http.Request) {
	if s.cov == nil {
		http.Error(w, "coverage collection is disabled (run with -coverage)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.cov.Report())
}

func (s *Server) handleCells(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.snapshot())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteBuildInfo(w)
	if s.runID != "" {
		writeRunInfo(w, s.runID)
	}
	WriteMetrics(w, s.reg)
	if s.cov != nil {
		writeCoverageMetrics(w, s.cov.Report())
	}
	if s.ledger != nil {
		writeLedgerMetrics(w, s.ledger)
	}
	if s.bus != nil {
		writeBusMetrics(w, s.bus.Stats())
	}
	if s.sched != nil {
		writeSchedMetrics(w, s.sched.Snapshot())
	}
	writeRuntimeMetrics(w)
}

// WriteBuildInfo renders the repro_build_info gauge: always 1, with
// the build identity carried in the labels (the node_exporter idiom).
func WriteBuildInfo(w io.Writer) {
	fmt.Fprintf(w, "# HELP repro_build_info Build identity of the serving binary (value is always 1).\n")
	fmt.Fprintf(w, "# TYPE repro_build_info gauge\n")
	fmt.Fprintf(w, "repro_build_info{version=%q,goversion=%q,snapshots=%q} 1\n",
		buildinfo.Version, buildinfo.GoVersion(), fmt.Sprint(campaign.SnapshotsEnabled()))
}

// writeCoverageMetrics renders the live coverage union as
// repro_coverage_edges_total, one series per edge family.
func writeCoverageMetrics(w io.Writer, rep *coverage.Report) {
	fmt.Fprintf(w, "# HELP repro_coverage_edges_total Distinct coverage edges observed, by family.\n")
	fmt.Fprintf(w, "# TYPE repro_coverage_edges_total gauge\n")
	for _, f := range rep.Families {
		fmt.Fprintf(w, "repro_coverage_edges_total{family=%q} %d\n", f.Family, f.Edges)
	}
}

// metricName folds a registry counter/histogram name into the
// Prometheus name space: "hypercall.mmu_update" -> repro_hypercall_mmu_update.
func metricName(name string) string {
	var b strings.Builder
	b.WriteString("repro_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// helpFor returns the HELP text for a registry series, keyed by the
// raw (pre-fold) registry name. Families share a prefix — every
// "hypercall.<name>" counter is a dispatch count — so the lookup is
// exact-name first, longest-prefix second, with a generic fallback so
// no series is ever exposed without documentation.
func helpFor(name string) string {
	exact := map[string]string{
		"hypercall.errors":      "Hypercall dispatches that returned an error.",
		"frames.alloc":          "Machine frames claimed from the allocator.",
		"frames.free":           "Machine frames returned to the allocator.",
		"pagetype.get":          "Page-type references taken (get_page_type).",
		"pagetype.put":          "Page-type references dropped (put_page_type).",
		"validation.reject":     "Page-table entries rejected by validation.",
		"walk.policy_denied":    "Page-table walks denied by the version's policy.",
		"walk.fault":            "Page-table walks that faulted.",
		"injector.ops":          "Injector primitive operations (arbitrary_access/state_inject).",
		"injector.transitions":  "Injector state-machine transitions.",
		"monitor.evidence":      "Evidence lines recorded by the monitor's audit.",
		"scenario.steps":        "Scenario transcript steps executed.",
		"telemetry.sink_errors": "Telemetry events the streaming sink failed to write.",
		telemetry.CellWallHistogram: "Per-cell wall time in nanoseconds " +
			"(not deterministic across runs).",
		telemetry.DetectionLatencyHistogram: "Per-cell detection latency in virtual-time events: " +
			"attack-phase end to first monitor evidence (RQ3).",
	}
	if h, ok := exact[name]; ok {
		return h
	}
	prefixes := []struct{ prefix, help string }{
		{"hypercall.", "Dispatches of this hypercall."},
		{"grant.", "Grant-table operations of this kind."},
		{"domctl.", "Domctl operations of this kind."},
		{"frames.", "Machine frame-allocator activity."},
		{"monitor.", "Monitor audit activity."},
		{"injector.", "Injector activity."},
	}
	for _, p := range prefixes {
		if strings.HasPrefix(name, p.prefix) {
			return p.help
		}
	}
	return "Campaign telemetry series " + name + "."
}

// WriteMetrics renders the registry in the Prometheus text exposition
// format: every counter as a _total series, every histogram with
// cumulative buckets, sum, count, and estimated p50/p99 quantile
// gauges. Every series is preceded by its # HELP and # TYPE lines.
// Output is deterministic (series sorted by name).
func WriteMetrics(w io.Writer, reg *telemetry.Registry) {
	for _, cv := range reg.Snapshot() {
		name := metricName(cv.Name)
		fmt.Fprintf(w, "# HELP %s_total %s\n", name, helpFor(cv.Name))
		fmt.Fprintf(w, "# TYPE %s_total counter\n", name)
		fmt.Fprintf(w, "%s_total %d\n", name, cv.Value)
	}
	for _, h := range reg.Histograms() {
		name := metricName(h.Name)
		fmt.Fprintf(w, "# HELP %s %s\n", name, helpFor(h.Name))
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		var cum uint64
		for _, b := range h.Buckets {
			cum += b.Count
			if b.UpperBound == ^uint64(0) {
				continue // folded into +Inf below
			}
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b.UpperBound, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
		fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
		fmt.Fprintf(w, "# HELP %s_quantile Estimated quantiles of %s.\n", name, metricName(h.Name))
		fmt.Fprintf(w, "# TYPE %s_quantile gauge\n", name)
		for _, q := range []struct {
			label string
			q     float64
		}{{"0.5", 0.5}, {"0.99", 0.99}} {
			fmt.Fprintf(w, "%s_quantile{quantile=\"%s\"} %d\n", name, q.label, h.Quantile(q.q))
		}
	}
}
