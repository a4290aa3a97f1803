// Command repro regenerates every table and figure of the paper from
// live experiment runs against the simulated hypervisor.
//
// Usage:
//
//	repro                    # everything
//	repro -table 3           # one table (1..3)
//	repro -figure 4          # one figure (1..4)
//	repro -matrix            # the full 102-cell campaign matrix
//	repro -matrix -workers 8 # the matrix on an 8-worker pool
//	repro -cell 4.6/XSA-212-crash/exploit     # one cell's transcript
//	repro -cell 4.13/XSA-212-priv/injection
//
// -cell runs one (version, use case, mode) cell, the Section VI
// workflow: the original PoC (exploit) or the injection script
// (injection). It prints the use case's abusive functionality and
// erroneous state, then the attacker terminal, the hypervisor console
// tail and the monitor's verdict with its evidence.
//
// Campaign cells always run in fresh, isolated environments, so they
// are spread over a worker pool (one worker per CPU by default;
// -workers overrides, and -workers 1 forces the serial debug path).
// The rendered output is byte-identical at any worker count.
//
// Table III, Fig. 4, the matrix, -equivalence, -score and -json are
// projections of one campaign matrix: an invocation runs the matrix
// once, the first time one of them needs it, and renders each from the
// same entries, so every cell reaches -trace, -spans and the flight
// recorder exactly once.
//
// -equivalence, -coverage and -ledger keep a run record, one entry per
// cell (a rerun cell supersedes its entry), journaled under -ledger and
// in memory otherwise; the RQ1/RQ2 artifacts all render from it.
//
// By default each (version, mode) environment boots once per process
// and every cell runs on a copy-on-write fork of the sealed machine;
// the output is byte-identical either way. -no-snapshot forces every
// cell through a full fresh boot — the escape hatch for bisecting a
// suspected snapshot-path divergence.
//
// Observability:
//
//	repro -matrix -trace trace.jsonl   # per-cell event trace (JSONL)
//	repro -matrix -metrics             # aggregated counters/histograms
//	repro -cell 4.6/XSA-148-priv/injection -trace cell.jsonl
//	repro -matrix -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Trace equivalence (RQ2):
//
//	repro -equivalence             # run both modes, diff traces per cell
//	repro -equivalence -workers 8  # same, on an 8-worker pool
//
// -equivalence runs the full matrix and structurally compares each
// scenario's exploit trace against its injection trace per version
// (canonicalized: addresses folded to layout roles, version and mode
// banners masked), reporting equivalent-modulo-noise or divergent per
// cell and exiting non-zero on any divergence or failed cell. Cells are
// graded from the run record's persisted effect streams, no telemetry
// needed. With -matrix the one matrix run renders both artifacts.
//
// Causal spans:
//
//	repro -matrix -spans spans.json    # span forest as Chrome trace JSON
//
// -spans captures a causal span tree per cell (cell → phase →
// hypercall/mm-op, with the monitor's audit pass nested in assess),
// writes the forest as Chrome trace-event JSON — load it in Perfetto
// (ui.perfetto.dev) or chrome://tracing; each campaign worker renders
// as its own track — and prints the deterministic span summary:
// per-phase virtual totals and the critical-path analysis of each batch
// at the configured pool size. Each cell's inject or exploit phase span
// ends at its trigger point, the virtual time the attack state was
// reached; RQ3 is answered by the verdicts that follow it. Span
// structure is measured in virtual time (the per-cell event
// counter), so it is byte-identical at any -workers value.
//
// Coverage maps (RQ1):
//
//	repro -matrix -coverage cov.json   # per-cell edge coverage + campaign union
//
// -coverage records a deterministic coverage map per cell — behaviour
// edges derived from the telemetry stream (hypercall outcomes,
// page-type transitions per frame class, validation rejects, walk
// denials, injector transitions, grant/domctl ops) — writes the run
// record's report (per-cell maps, attributed union, canonical digest)
// as JSON, interrupted or not, and prints the coverage summary with the
// exploit-vs-injection shared-edge table. The report is byte-identical
// at any -workers value, under seeded -chaos, fork-vs-fresh boot and
// -resume; diff two runs with "tracecheck cov a.json b.json".
//
// Live observability:
//
//	repro -matrix -listen :8080    # /metrics /healthz /cells while running
//	repro -matrix -listen :8080 -spans spans.json   # adds /spans
//	repro -matrix -listen :8080 -coverage cov.json  # adds /coverage
//	repro -matrix -listen :8080 -serve              # keep serving after the run
//	curl -N http://localhost:8080/events            # live SSE event stream
//
// /coverage serves the run record's report whenever one is kept.
// -listen also serves the live campaign event stream: /events is an SSE
// endpoint carrying batch/cell lifecycle events with monotonic IDs — a
// reconnecting client sends Last-Event-ID and replays the retained ring
// gaplessly — plus /schedule (the wall-clock worker schedule as JSON)
// and /debug/pprof (the Go profiling endpoints). Slow /events consumers
// lose events instead of slowing the campaign; the loss is counted per
// connection and surfaced in-band. -serve keeps the server (and /events
// replay, /runs, pprof) up after the campaign completes until Ctrl-C.
//
// Wall schedule:
//
//	repro -matrix -workers 4 -schedule sched.json   # Perfetto wall schedule
//
// -schedule records which worker ran which cell, each cell's queue
// wait and run time, writes the schedule as Chrome trace-event JSON
// (load it in ui.perfetto.dev; one track per worker) with the summary
// snapshot embedded, and prints the utilization / queue-wait / wall
// critical-path summary. It complements -spans: spans measure the
// deterministic virtual clock, -schedule measures the wall clock, and
// nothing it observes feeds a deterministic artifact. Validate and
// summarize a schedule file with "tracecheck sched sched.json".
//
// Structured logging:
//
//	repro -matrix -log run.log             # JSON logs (run_id on every line)
//	repro -matrix -log - -log-level debug  # per-cell dispatch/settle to stderr
//
// -log threads log/slog through the command and the campaign engine:
// batch queueing at Info, per-cell dispatch/settle with worker,
// queue-wait and verdict attrs at Debug, failures with their class at
// Warn. The default (no -log) stays completely silent.
//
// Run ledger & regression diffs:
//
//	repro -ledger runs            # journal the matrix into a run-record store
//	repro -ledger runs -resume    # delta rerun: only absent or changed cells
//
// -ledger gives the campaign a deterministic, content-addressed run ID
// (digest of the scenario-registry digest, version set, chaos seed,
// mode flags and build version) and journals every cell's settled
// outcome — verdict, equivalence tier, coverage digest and edges, span
// makespan, failure class — live into <dir>/<run-id>/ as cells settle.
// The settled record is byte-identical at any -workers count and fork
// path; -resume re-executes only cells whose key is absent or whose
// registry spec changed and merges to artifacts byte-identical to a
// full run. Inspect and diff records with
// "tracecheck runs list|show|diff".
//
// Robustness:
//
//	repro -matrix -chaos 7 -continue-on-error   # seeded substrate faults
//
// Under -continue-on-error or -chaos the flight recorder is armed: a
// cell that settles as a failure has its final event ring dumped as
// flight-<cell>.jsonl in the current directory immediately, even if
// the process never reaches its normal trace flush.
//
// -chaos arms a deterministic fault plan against the simulator
// substrate (forced allocation failures, hypercall-handler panics,
// forced hangs, telemetry-sink errors), keyed only by the seed and the
// cell coordinate, so the same seed reproduces the same faults at any
// worker count. -continue-on-error records per-cell failure
// classifications (error/panic/hang/canceled) in the matrix and JSON
// artifact instead of stopping at the first failing cell; Table III,
// Fig. 4 and -score need every cell, so they fail on the first failed
// cell they read, and the JSON artifact omits the scores. Ctrl-C
// cancels the campaign cleanly: -trace, -metrics and both profiles are
// still flushed with whatever cells completed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/campaign"
	"repro/internal/events"
	"repro/internal/exploits"
	"repro/internal/faults"
	"repro/internal/fieldstudy"
	"repro/internal/hv"
	"repro/internal/inject"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/tracediff"
	"repro/internal/workload"
)

// parseCell splits a "version/use-case/mode" cell coordinate. The
// use-case segment is resolved against the scenario registry up front,
// so a typo fails here with the valid names instead of deep inside the
// campaign engine.
func parseCell(s string) (hv.Version, exploits.Spec, campaign.Mode, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 3 {
		return hv.Version{}, exploits.Spec{}, "", fmt.Errorf("cell %q: want version/use-case/mode", s)
	}
	v, err := hv.VersionByName(parts[0])
	if err != nil {
		return hv.Version{}, exploits.Spec{}, "", err
	}
	spec, err := exploits.SpecByName(parts[1])
	if err != nil {
		return hv.Version{}, exploits.Spec{}, "", fmt.Errorf("cell %q: %w (valid use cases: %s)",
			s, err, strings.Join(exploits.SpecNames(), ", "))
	}
	mode := campaign.Mode(parts[2])
	if mode != campaign.ModeExploit && mode != campaign.ModeInjection {
		return hv.Version{}, exploits.Spec{}, "", fmt.Errorf("cell %q: mode must be %q or %q", s, campaign.ModeExploit, campaign.ModeInjection)
	}
	return v, spec, mode, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("repro: ")
	if err := run(os.Stdout); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// run is the single exit path of the command: every failure returns
// through it, so the deferred CPU-profile stop and the artifact flushes
// below always execute. The previous revision called log.Fatalf at each
// failure site, which skipped the deferred pprof.StopCPUProfile and
// never reached -memprofile, -trace or -metrics on error.
func run(out io.Writer) (err error) {
	table := flag.Int("table", 0, "render only this table (1..3)")
	figure := flag.Int("figure", 0, "render only this figure (1..4)")
	matrix := flag.Bool("matrix", false, "render only the full campaign matrix")
	fuzz := flag.Int("fuzz", 0, "run the randomized-injection vs hypercall-baseline comparison with this many trials")
	score := flag.Bool("score", false, "run the per-version security benchmark")
	jsonOut := flag.Bool("json", false, "emit the full campaign as a JSON artifact")
	avail := flag.Bool("availability", false, "run the availability-under-injection experiment")
	corpus := flag.Bool("corpus", false, "print the scenario-corpus distribution (families, functionality classes, cell counts)")
	workers := flag.Int("workers", 0, "campaign worker-pool size (0 = one per CPU, 1 = serial)")
	cellSpec := flag.String("cell", "", "run a single cell, \"version/use-case/mode\" (e.g. 4.6/XSA-148-priv/injection)")
	traceOut := flag.String("trace", "", "write a per-cell JSONL event trace to this file")
	metrics := flag.Bool("metrics", false, "print the aggregated telemetry summary after the campaign")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	chaos := flag.Int64("chaos", 0, "arm a seeded substrate fault plan with this seed (0 = off)")
	contOnErr := flag.Bool("continue-on-error", false, "record per-cell failure classifications instead of stopping at the first failing cell")
	equivalence := flag.Bool("equivalence", false, "run the full matrix in both modes and report per-cell trace equivalence (RQ2); exits non-zero on any divergent cell")
	listenAddr := flag.String("listen", "", "serve live observability on this address (/metrics, /healthz, /cells, /spans, /events, /schedule, /debug/pprof) for the duration of the run")
	serve := flag.Bool("serve", false, "with -listen: keep the observability server up after the campaign completes (for /runs, /events replay, pprof) until interrupted")
	scheduleOut := flag.String("schedule", "", "write the wall-clock worker schedule as Chrome trace-event JSON to this file and print the schedule summary")
	logOut := flag.String("log", "", "write structured JSON run logs to this file (\"-\" = stderr; silent by default)")
	logLevel := flag.String("log-level", "info", "minimum structured log level with -log: debug, info, warn or error")
	spansOut := flag.String("spans", "", "capture per-cell causal span trees, write them as Chrome trace-event JSON to this file, and print the span summary")
	noSnapshot := flag.Bool("no-snapshot", false, "boot every campaign cell fresh instead of forking the sealed (version, mode) snapshot")
	covOut := flag.String("coverage", "", "accumulate per-cell coverage maps and write the campaign coverage report (JSON) to this file")
	ledgerDir := flag.String("ledger", "", "journal the campaign into a content-addressed run-record store at this directory (implies the full matrix)")
	resume := flag.Bool("resume", false, "with -ledger: load the latest compatible run record and re-execute only absent or changed cells")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *noSnapshot {
		campaign.EnableSnapshots(false)
	}
	if *version {
		snapshots := "enabled"
		if !campaign.SnapshotsEnabled() {
			snapshots = "disabled"
		}
		fmt.Fprintf(out, "repro %s (%s, snapshots %s)\n", buildinfo.Version, buildinfo.GoVersion(), snapshots)
		return nil
	}

	// Reject out-of-range selections before any work or profile file is
	// created. 0 means "not selected" for the numeric flags.
	if *table < 0 || *table > 3 {
		return fmt.Errorf("-table: want 1..3, got %d", *table)
	}
	if *figure < 0 || *figure > 4 {
		return fmt.Errorf("-figure: want 1..4, got %d", *figure)
	}
	if *fuzz < 0 {
		return fmt.Errorf("-fuzz: want a positive trial count, got %d", *fuzz)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers: want 0 (one per CPU) or a positive pool size, got %d", *workers)
	}
	if *resume && *ledgerDir == "" {
		return errors.New("-resume: requires -ledger")
	}
	if *serve && *listenAddr == "" {
		return errors.New("-serve: requires -listen")
	}
	if *ledgerDir != "" {
		// The ledger records exactly the full campaign matrix; selection
		// flags would record a different experiment under the same run
		// identity. Live-only captures (-trace, -spans) are rejected too:
		// a delta rerun executes only a subset of cells, so those
		// artifacts could not merge to a full run's.
		if *table != 0 || *figure != 0 || *fuzz != 0 || *score || *jsonOut || *avail || *corpus || *cellSpec != "" {
			return errors.New("-ledger: runs the full matrix; drop -table/-figure/-fuzz/-score/-json/-availability/-corpus/-cell")
		}
		if *traceOut != "" || *spansOut != "" {
			return errors.New("-ledger: -trace and -spans are live captures and cannot merge across delta reruns")
		}
	}

	if *cpuProfile != "" {
		f, cerr := os.Create(*cpuProfile)
		if cerr != nil {
			return fmt.Errorf("cpuprofile: %w", cerr)
		}
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", cerr)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("cpuprofile: %w", cerr)
			}
		}()
	}

	// Ctrl-C / SIGTERM cancels the campaign context: in-flight cells are
	// classified as canceled, undispatched cells never start, and the
	// flush section below still runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runner := &campaign.Runner{Workers: *workers, ContinueOnError: *contOnErr}
	if *traceOut != "" || *metrics || *listenAddr != "" {
		// -trace writes every cell's events; -metrics and -listen read
		// the registry's aggregate.
		runner.Telemetry = telemetry.NewRegistry()
	}
	if *spansOut != "" {
		runner.Spans = span.NewCollector()
	}
	if *chaos != 0 {
		plan := faults.NewPlan(*chaos, faults.DefaultDensity)
		runner.Faults = plan
		// Unblock any wedged cells the watchdog abandoned so their
		// goroutines exit before the process does.
		defer plan.ReleaseAll()
	}

	// Run identity: every campaign of this configuration shares one
	// content-addressed run ID (worker count and the fork path are
	// excluded by construction — they cannot change the outcome). The ID
	// namespaces flight-recorder dumps and is exported by /healthz and
	// /metrics even when no ledger directory is given.
	runCfg := ledger.CurrentConfig(*chaos, *contOnErr)
	runID := runCfg.RunID()

	// Structured run logging (-log): slog threads through the runner and
	// this command with the run identity on every line. Silent (and
	// free) unless requested.
	var logger *slog.Logger
	if *logOut != "" {
		var lvl slog.Level
		if lerr := lvl.UnmarshalText([]byte(*logLevel)); lerr != nil {
			return fmt.Errorf("-log-level: %w", lerr)
		}
		lw := io.Writer(os.Stderr)
		if *logOut != "-" {
			f, lerr := os.Create(*logOut)
			if lerr != nil {
				return fmt.Errorf("log: %w", lerr)
			}
			defer func() {
				if cerr := f.Close(); cerr != nil && err == nil {
					err = fmt.Errorf("log: %w", cerr)
				}
			}()
			lw = f
		}
		logger = slog.New(slog.NewJSONHandler(lw, &slog.HandlerOptions{Level: lvl})).With("run_id", runID)
		runner.Log = logger
		logger.Info("campaign starting",
			"version", buildinfo.Version, "workers", *workers,
			"chaos", *chaos, "continue_on_error", *contOnErr)
	}

	// The wall-clock observability plane: the scheduler timeline is the
	// runner's Sched hook. It backs -schedule, /schedule and /cells, and
	// under -listen publishes every lifecycle event on the bus behind
	// the SSE /events stream. It observes wall time only — none of it
	// can reach a deterministic artifact.
	var (
		bus      *events.Bus
		timeline *events.Timeline
	)
	if *listenAddr != "" {
		bus = events.NewBus(0, 0)
	}
	if *scheduleOut != "" || *listenAddr != "" {
		timeline = events.NewTimeline(bus)
		runner.Sched = timeline
	}

	// The run record behind every RQ1/RQ2 artifact: journaled into the
	// store under -ledger, in memory otherwise.
	var (
		ledgerStore *ledger.Store
		record      *ledger.Writer
		ledgerPrev  *ledger.Record
	)
	if *ledgerDir != "" {
		if ledgerStore, err = ledger.Open(*ledgerDir); err != nil {
			return err
		}
		if *resume {
			if ledgerPrev, err = ledgerStore.LatestMatching(runCfg); err != nil {
				return fmt.Errorf("-resume: %w", err)
			}
		}
	}
	delta := ledger.PlanDelta(ledgerPrev, runCfg)
	switch {
	case ledgerStore != nil:
		if record, err = ledgerStore.NewWriter(runCfg, delta.Expected); err != nil {
			return err
		}
	case *equivalence || *covOut != "":
		record = ledger.NewWriter(runCfg, delta.Expected)
	}
	if record != nil {
		runner.Observer = record
	}

	// Live observers: the HTTP server (-listen) serves the timeline,
	// the bus, the span collector and the run record; the flight
	// recorder (armed whenever the campaign is allowed to outlive
	// failing cells, so their last events land on disk the moment the
	// engine settles the failure) is the Progress hook.
	var flight *obs.FlightRecorder
	if *listenAddr != "" {
		server := obs.NewServer(runner.Telemetry)
		server.SetSpans(runner.Spans)
		server.SetRecord(record)
		server.SetRunID(runID)
		server.SetLedger(ledgerStore)
		server.SetBus(bus)
		server.SetSchedule(timeline)
		addr, lerr := server.Listen(*listenAddr)
		if lerr != nil {
			return lerr
		}
		log.Printf("observability server on http://%s (/metrics /healthz /cells /spans /coverage /runs /events /schedule /debug/pprof)", addr)
		if logger != nil {
			logger.Info("observability server listening", "addr", addr.String())
		}
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if serr := server.Shutdown(sctx); serr != nil && err == nil {
				err = fmt.Errorf("observability server shutdown: %w", serr)
			}
		}()
	}
	if *contOnErr || *chaos != 0 {
		flight = &obs.FlightRecorder{RunID: runID}
		runner.SalvageProfiles = true
		runner.Progress = flight
	}

	// profiles accumulates every profiled cell in run order for -trace.
	var profiles []*telemetry.CellProfile
	collect := func(res *campaign.RunResult) {
		if res != nil && res.Profile != nil {
			profiles = append(profiles, res.Profile)
		}
	}
	// matrixRun runs the campaign matrix the first time an experiment
	// needs it; every later experiment renders from the same entries.
	matrixRun := sync.OnceValues(func() ([]campaign.MatrixEntry, error) {
		entries, err := runner.RunMatrixContext(ctx)
		for _, e := range entries {
			collect(e.Result)
		}
		return entries, err
	})

	all := *table == 0 && *figure == 0 && !*matrix && *fuzz == 0 && !*score && !*jsonOut && !*avail && *cellSpec == "" && !*equivalence && !*corpus && *ledgerDir == ""
	body := func() error {
		if *cellSpec != "" {
			v, spec, mode, err := parseCell(*cellSpec)
			if err != nil {
				return fmt.Errorf("-cell: %w", err)
			}
			res, err := runner.RunContext(ctx, v, spec.Name, mode)
			if err != nil {
				return fmt.Errorf("cell %s: %w", *cellSpec, err)
			}
			collect(res)
			fmt.Fprintf(out, "functionality: %s\nerroneous state: %s\n\n", spec.Functionality, spec.State)
			fmt.Fprintln(out, report.Transcript(res))
		}
		if all || *table == 1 {
			t := fieldstudy.Classify(fieldstudy.Dataset())
			if err := t.Verify(); err != nil {
				return fmt.Errorf("table I verification: %w", err)
			}
			fmt.Fprintln(out, report.TableI(t))
		}
		if all || *table == 2 {
			fmt.Fprintln(out, report.TableII(inject.UseCaseModels()))
		}
		if all || *corpus {
			fmt.Fprintln(out, report.Corpus(fieldstudy.CorpusOf(exploits.Specs())))
		}
		if all || *table == 3 {
			rows, err := project(matrixRun, campaign.Table3Rows)
			if err != nil {
				return fmt.Errorf("table III campaign: %w", err)
			}
			versions := make([]string, 0, 2)
			for _, v := range campaign.Table3Versions() {
				versions = append(versions, v.Name)
			}
			fmt.Fprintln(out, report.TableIII(rows, versions))
		}
		if all || *figure == 1 {
			fmt.Fprintln(out, report.Fig1())
			fmt.Fprintln(out)
		}
		if all || *figure == 2 {
			fmt.Fprintln(out, report.Fig2())
			fmt.Fprintln(out)
		}
		if all || *figure == 3 {
			fmt.Fprintln(out, report.Fig3(inject.GuestWritablePageTableEntry))
		}
		if all || *figure == 4 {
			rows, err := project(matrixRun, campaign.Fig4Rows)
			if err != nil {
				return fmt.Errorf("figure 4 campaign: %w", err)
			}
			fmt.Fprintln(out, report.Fig4(rows))
		}
		if all || *matrix || *equivalence || *ledgerDir != "" {
			// Run the matrix (a resume only the delta) and grade RQ2 from
			// the run record; -ledger renders the matrix from the record
			// too, so a resumed rerun merges byte-identically.
			var entries []campaign.MatrixEntry
			var err error
			if ledgerPrev != nil {
				log.Printf("ledger: resume from run %s: %d cells reused, %d to execute (%d stale)",
					ledgerPrev.RunID, len(delta.Reused), len(delta.Rerun), delta.Stale)
				if ledgerPrev.RunID != runID {
					record.Import(delta.Reused)
				}
				if len(delta.Rerun) > 0 {
					_, err = runner.RunCellRefs(ctx, delta.Rerun)
				}
			} else {
				if *resume {
					log.Print("ledger: no compatible prior run; executing the full matrix")
				}
				entries, err = matrixRun()
			}
			if err != nil {
				return fmt.Errorf("full matrix: %w", err)
			}
			var rec *ledger.Record
			if record != nil {
				if snap := record.Snapshot(); snap.Complete() && snap.Failed() == 0 {
					verdicts, err := ledger.Equivalence(snap)
					if err != nil {
						return fmt.Errorf("equivalence: %w", err)
					}
					record.RecordEquivalence(verdicts)
				} else {
					// A partial or failed matrix cannot carry verdicts
					// inherited from a prior fully graded run.
					record.StripEquivalence()
				}
				rec = record.Snapshot()
				if *ledgerDir != "" {
					entries = rec.MatrixEntries()
				}
			}
			if all || *matrix || *ledgerDir != "" {
				fmt.Fprintln(out, report.Matrix(entries))
			}
			if *equivalence {
				verdicts, ok := rec.EquivalenceVerdicts()
				if !ok {
					return errors.New("equivalence: run record is not fully graded (failed or missing cells)")
				}
				if err := printEquivalence(out, verdicts); err != nil {
					return err
				}
			}
		}
		if *fuzz > 0 {
			for _, v := range hv.Versions() {
				if err := ctx.Err(); err != nil {
					return err
				}
				cmp, err := campaign.CompareWithBaseline(v, *fuzz, 2023)
				if err != nil {
					return fmt.Errorf("fuzz comparison on %s: %w", v.Name, err)
				}
				fmt.Fprintln(out, report.BaselineComparison(cmp))
			}
		}
		if *score {
			scores, err := project(matrixRun, campaign.Scores)
			if err != nil {
				return fmt.Errorf("security benchmark: %w", err)
			}
			fmt.Fprintln(out, report.Scoreboard(scores))
		}
		if *jsonOut {
			entries, err := matrixRun()
			if err == nil {
				err = campaign.WriteExport(out, entries, runner.Faults.Seed(), runner.ContinueOnError)
			}
			if err != nil {
				return fmt.Errorf("json export: %w", err)
			}
		}
		if *avail {
			for _, v := range hv.Versions() {
				if err := ctx.Err(); err != nil {
					return err
				}
				rows, err := campaign.AvailabilityUnderInjection(v, workload.DefaultConfig())
				if err != nil {
					return fmt.Errorf("availability on %s: %w", v.Name, err)
				}
				fmt.Fprintln(out, report.Availability(rows))
			}
		}
		return nil
	}
	bodyErr := body()
	if bodyErr != nil && ctx.Err() != nil {
		log.Print("interrupted; flushing partial artifacts")
	}
	if timeline != nil {
		// The stream's terminal event: subscribers learn the campaign is
		// over without waiting for the connection to close.
		timeline.CampaignDone()
	}
	if logger != nil {
		attrs := []any{"ok", bodyErr == nil}
		if timeline != nil {
			s := timeline.Snapshot()
			attrs = append(attrs, "cells", s.Completed, "failed", s.Failed,
				"makespan_ns", s.MakespanNS, "utilization", s.Utilization)
		}
		logger.Info("campaign done", attrs...)
	}
	if flight != nil {
		for _, p := range flight.Dumps() {
			log.Printf("flight recorder: dumped %s", p)
		}
		for _, ferr := range flight.Errors() {
			log.Printf("warning: %v", ferr)
		}
	}

	// Flush section: runs whether or not the body failed, so an
	// interrupted or faulted campaign still leaves usable artifacts.
	var flushErrs []error
	if *traceOut != "" {
		if len(profiles) == 0 && bodyErr != nil && runner.Telemetry != nil {
			// The run failed before cell-ordered results materialized;
			// salvage the cells that completed, in completion order.
			profiles = runner.Telemetry.CellProfiles()
		}
		switch {
		case len(profiles) > 0:
			if err := writeFile(*traceOut, "trace", func(w io.Writer) error { return telemetry.WriteTrace(w, profiles) }); err != nil {
				flushErrs = append(flushErrs, err)
			} else {
				log.Printf("wrote %d-cell trace to %s", len(profiles), *traceOut)
			}
		case bodyErr == nil:
			flushErrs = append(flushErrs, errors.New("-trace: no profiled cells ran (combine -trace with -cell or an experiment that runs the campaign matrix)"))
		}
	}
	if *metrics {
		fmt.Fprintln(out, report.MetricsSummary(runner.Telemetry))
	}
	if *spansOut != "" {
		forest := runner.Spans.Forest()
		if cerr := forest.Check(); cerr != nil {
			flushErrs = append(flushErrs, fmt.Errorf("spans: invariant violation: %w", cerr))
		}
		if werr := writeFile(*spansOut, "spans", func(w io.Writer) error { return span.WriteChrome(w, forest) }); werr != nil {
			flushErrs = append(flushErrs, werr)
		} else {
			log.Printf("wrote span trace to %s (open in ui.perfetto.dev)", *spansOut)
		}
		poolSize := *workers
		if poolSize == 0 {
			poolSize = runtime.GOMAXPROCS(0)
		}
		fmt.Fprintln(out, report.SpanSummary(forest, poolSize))
	}
	if record != nil {
		// Close settles whatever ran, a failed or interrupted run too:
		// a later -resume picks the journal up from exactly here.
		rec, cerr := record.Close()
		if cerr != nil {
			flushErrs = append(flushErrs, cerr)
		}
		if ledgerStore != nil {
			log.Printf("ledger: run %s settled %d/%d cells (record digest %s) in %s",
				rec.RunID, rec.Completed, rec.Cells, rec.Digest, ledgerStore.RunDir(rec.RunID))
		}
		if *covOut != "" {
			rep := rec.CoverageReport()
			if werr := writeFile(*covOut, "coverage", indentedJSON(rep)); werr != nil {
				flushErrs = append(flushErrs, werr)
			} else {
				log.Printf("wrote coverage report (%d edges, digest %s) to %s", rep.TotalEdges, rep.Digest, *covOut)
			}
			fmt.Fprintln(out, report.CoverageSummary(rep))
		}
	}
	if *scheduleOut != "" {
		if werr := writeFile(*scheduleOut, "schedule", timeline.WriteChrome); werr != nil {
			flushErrs = append(flushErrs, werr)
		} else {
			log.Printf("wrote wall schedule to %s (open in ui.perfetto.dev)", *scheduleOut)
		}
		fmt.Fprintln(out, events.RenderSummary(timeline.Snapshot()))
	}
	if *memProfile != "" {
		runtime.GC()
		if err := writeFile(*memProfile, "memprofile", pprof.WriteHeapProfile); err != nil {
			flushErrs = append(flushErrs, err)
		}
	}
	if *serve && ctx.Err() == nil {
		// -serve: the campaign is done but the observability surfaces
		// (/runs, /events replay, /schedule, pprof) stay inspectable
		// until Ctrl-C. The deferred Shutdown then terminates live SSE
		// subscribers so the drain completes promptly.
		log.Print("campaign done; observability server still serving (Ctrl-C to exit)")
		<-ctx.Done()
		log.Print("interrupt; shutting down observability server")
	}
	if bus != nil {
		// End-of-stream for every connected subscriber: their channels
		// close, the SSE handlers emit the `end` notice and return.
		bus.Close()
	}
	return errors.Join(append([]error{bodyErr}, flushErrs...)...)
}

// project renders one experiment from the invocation's single matrix
// run: f projects the entries into the experiment's rows.
func project[T any](matrixRun func() ([]campaign.MatrixEntry, error), f func([]campaign.MatrixEntry) (T, error)) (T, error) {
	entries, err := matrixRun()
	if err != nil {
		var zero T
		return zero, err
	}
	return f(entries)
}

// printEquivalence renders the RQ2 table and fails on any divergent
// cell.
func printEquivalence(out io.Writer, verdicts []tracediff.CellVerdict) error {
	fmt.Fprintln(out, report.TraceEquivalence(verdicts))
	divergent := 0
	for _, cv := range verdicts {
		if !cv.Equivalent() {
			divergent++
		}
	}
	if divergent > 0 {
		return fmt.Errorf("equivalence: %d of %d cells divergent", divergent, len(verdicts))
	}
	return nil
}

// writeFile creates path and hands it to write; a failure to create,
// write or close it is reported as "what: err".
func writeFile(path, what string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// indentedJSON writes v as two-space-indented JSON.
func indentedJSON(v any) func(io.Writer) error {
	return func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
}
