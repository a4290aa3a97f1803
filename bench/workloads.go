package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/faults"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/span"
)

// workers is the load generator's pool size: every campaign runs on a
// two-worker runner, one worker per core of the two-core reference host.
const workers = 2

// A workload is one kind of campaign the closed loop runs back to
// back. The harness gives each campaign its own empty directory.
type workload interface {
	// prepare does campaign i's untimed groundwork in dir.
	prepare(i int, dir string) error
	// run executes campaign i, the timed part. It returns the number of
	// cells in the campaign's output and the output check, which the
	// harness calls untimed.
	run(i int, dir string, tr *tracer) (cells int, check func() error, err error)
	// countPass returns the runner settings and cells of one campaign
	// of this workload, for the deterministic telemetry count pass.
	countPass() (*campaign.Runner, []campaign.CellRef)
}

// env is what a workload's setup draws on.
type env struct {
	root     string // repository root, where the committed baselines live
	scratch  string // this process's scratch directory
	seed     int64
	variants int // seeded input variants chaos and resume rotate through
}

var workloadNames = []string{"matrix", "artifacts", "chaos", "resume"}

// newWorkload sets a workload up, including its first, cold campaign.
func newWorkload(name string, e env) (workload, error) {
	switch name {
	case "matrix":
		return newMatrix(e)
	case "artifacts":
		return newArtifacts(e)
	case "chaos":
		return newChaos(e)
	case "resume":
		return newResume(e)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

var ctx = context.Background()

// allCells lists the full matrix in dispatch order.
func allCells() []campaign.CellRef {
	return ledger.PlanDelta(nil, ledger.CurrentConfig(0, false)).Rerun
}

func sameRender(what, got, want string) error {
	if got != want {
		return fmt.Errorf("rendered matrix differs from the %s", what)
	}
	return nil
}

// matrix is `repro -matrix`: the full campaign and its rendering, with
// no collectors attached.
type matrix struct{ ref string }

// newMatrix renders the serial reference, which must match the matrix
// the committed ledger baseline renders.
func newMatrix(e env) (*matrix, error) {
	base, err := committedRecord(e.root)
	if err != nil {
		return nil, err
	}
	entries, err := (&campaign.Runner{Workers: 1}).RunMatrixContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("matrix: serial reference: %w", err)
	}
	ref := report.Matrix(entries)
	if err := sameRender("committed ledger baseline's", ref, base.render); err != nil {
		return nil, fmt.Errorf("matrix: serial reference: %w", err)
	}
	return &matrix{ref: ref}, nil
}

func (w *matrix) prepare(int, string) error { return nil }

func (w *matrix) run(_ int, _ string, tr *tracer) (int, func() error, error) {
	r := &campaign.Runner{Workers: workers}
	tr.attach(r)
	sp := tr.beginRunner("campaign.Runner.RunMatrixContext")
	entries, err := r.RunMatrixContext(ctx)
	tr.end(sp)
	if err != nil {
		return 0, nil, err
	}
	sp = tr.begin("report.Matrix")
	out := report.Matrix(entries)
	tr.end(sp)
	return len(entries), func() error { return sameRender("serial reference", out, w.ref) }, nil
}

func (w *matrix) countPass() (*campaign.Runner, []campaign.CellRef) {
	return &campaign.Runner{}, allCells()
}

// artifacts is what a researcher runs: the matrix with coverage, spans
// and the run ledger attached, then every artifact settled and the
// matrix rendered from the record.
type artifacts struct {
	coverage *coverage.Report // committed COVERAGE_matrix.json
	record   baseline
	forest   string // canonical span forest of the cold campaign
}

func newArtifacts(e env) (*artifacts, error) {
	rep, err := committedCoverage(e.root)
	if err != nil {
		return nil, err
	}
	rec, err := committedRecord(e.root)
	if err != nil {
		return nil, err
	}
	w := &artifacts{coverage: rep, record: rec}
	dir := filepath.Join(e.scratch, "artifacts-cold")
	defer os.RemoveAll(dir)
	_, check, err := w.run(0, dir, nil)
	if err == nil {
		err = check()
	}
	if err != nil {
		return nil, fmt.Errorf("artifacts: cold campaign: %w", err)
	}
	return w, nil
}

// committedCoverage loads and self-verifies the committed coverage
// baseline.
func committedCoverage(root string) (*coverage.Report, error) {
	data, err := os.ReadFile(filepath.Join(root, "COVERAGE_matrix.json"))
	if err != nil {
		return nil, fmt.Errorf("coverage baseline: %w (run from the repository root)", err)
	}
	var rep coverage.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("coverage baseline: %w", err)
	}
	if err := rep.Verify(); err != nil {
		return nil, fmt.Errorf("coverage baseline: %w", err)
	}
	return &rep, nil
}

// baseline is what a full clean campaign's record must hold: the
// committed LEDGER_baseline.json, its digest and its matrix rendering.
type baseline struct {
	digest string
	render string
}

// committedRecord loads the committed record baseline. Its entries are
// settled again under this build's config, so a build-version bump that
// left the baseline's header behind does not read as a changed outcome.
func committedRecord(root string) (baseline, error) {
	base, err := ledger.LoadRecordFile(filepath.Join(root, "LEDGER_baseline.json"))
	if err != nil {
		return baseline{}, fmt.Errorf("ledger baseline: %w (run from the repository root)", err)
	}
	cfg := ledger.CurrentConfig(0, false)
	rec := ledger.Settle(&ledger.Run{RunID: cfg.RunID(), Config: cfg, Cells: base.Cells}, base.Entries)
	return baseline{digest: rec.Digest, render: report.Matrix(rec.MatrixEntries())}, nil
}

// check compares a settled record and its rendering with the baseline.
func (b baseline) check(rec *ledger.Record, out string) error {
	if rec.Digest != b.digest {
		return fmt.Errorf("ledger record digest %s, committed baseline settles to %s", rec.Digest, b.digest)
	}
	return sameRender("committed ledger baseline's", out, b.render)
}

func (w *artifacts) prepare(int, string) error { return nil }

func (w *artifacts) run(_ int, dir string, tr *tracer) (int, func() error, error) {
	cfg := ledger.CurrentConfig(0, false)
	sp := tr.begin("ledger.Store.NewWriter")
	store, err := ledger.Open(dir)
	if err != nil {
		tr.end(sp)
		return 0, nil, err
	}
	lw, err := store.NewWriter(cfg, ledger.PlanDelta(nil, cfg).Expected)
	tr.end(sp)
	if err != nil {
		return 0, nil, err
	}
	cov, spans := coverage.NewCollector(), span.NewCollector()
	r := &campaign.Runner{Workers: workers, Coverage: cov, Spans: spans, Observer: lw}
	tr.attach(r)
	sp = tr.beginRunner("campaign.Runner.RunMatrixContext")
	entries, err := r.RunMatrixContext(ctx)
	tr.end(sp)
	if err != nil {
		lw.Close()
		return 0, nil, err
	}
	rec, err := settle(lw, tr)
	if err != nil {
		return 0, nil, err
	}
	sp = tr.begin("coverage.Collector.Report")
	rep := cov.Report()
	tr.end(sp)
	sp = tr.begin("span.Collector.Forest")
	forest := spans.Forest()
	canon := forest.Canonical()
	tr.end(sp)
	sp = tr.begin("report.Matrix")
	out := report.Matrix(rec.MatrixEntries())
	tr.end(sp)
	if tr != nil {
		tr.observe("coverage.union_edges", float64(rep.TotalEdges))
		if fi, err := os.Stat(filepath.Join(store.RunDir(rec.RunID), "cells.jsonl")); err == nil {
			tr.observe("ledger.journal_kb", float64(fi.Size())/1024)
		}
	}
	check := func() error {
		if rep.Digest != w.coverage.Digest || rep.TotalEdges != w.coverage.TotalEdges {
			return fmt.Errorf("coverage %d edges digest %s, committed baseline %d edges digest %s",
				rep.TotalEdges, rep.Digest, w.coverage.TotalEdges, w.coverage.Digest)
		}
		if err := w.record.check(rec, out); err != nil {
			return err
		}
		if err := forest.Check(); err != nil {
			return fmt.Errorf("span forest: %w", err)
		}
		if w.forest == "" {
			w.forest = canon
		} else if canon != w.forest {
			return fmt.Errorf("span forest differs from the cold campaign's")
		}
		return sameRender("live campaign's", out, report.Matrix(entries))
	}
	return rec.Completed, check, nil
}

func (w *artifacts) countPass() (*campaign.Runner, []campaign.CellRef) {
	return &campaign.Runner{}, allCells()
}

// settle grades equivalence from the journaled record and closes it,
// as `repro -ledger` does.
func settle(lw *ledger.Writer, tr *tracer) (*ledger.Record, error) {
	sp := tr.begin("ledger.Equivalence")
	if snap := lw.Snapshot(); snap.Complete() && snap.Failed() == 0 {
		verdicts, err := ledger.Equivalence(snap)
		if err != nil {
			tr.end(sp)
			lw.Close()
			return nil, err
		}
		lw.RecordEquivalence(verdicts)
	} else {
		lw.StripEquivalence()
	}
	tr.end(sp)
	sp = tr.begin("ledger.Writer.Close")
	rec, err := lw.Close()
	tr.end(sp)
	return rec, err
}

// chaos is `repro -matrix -chaos N -continue-on-error`: the matrix under
// a seeded substrate fault plan, with the flight recorder dumping every
// failing cell. Campaigns rotate through several plans derived from the
// seed, so one plan's luck does not decide the run.
type chaos struct {
	seeds []int64
	refs  []string // serial reference rendering per plan
}

func newChaos(e env) (*chaos, error) {
	w := &chaos{}
	rng := rand.New(rand.NewSource(e.seed))
	for k := 0; k < e.variants; k++ {
		s := rng.Int63()
		plan := faults.NewPlan(s, faults.DefaultDensity)
		entries, err := (&campaign.Runner{Workers: 1, ContinueOnError: true, Faults: plan}).RunMatrixContext(ctx)
		plan.ReleaseAll()
		if err != nil {
			return nil, fmt.Errorf("chaos: serial reference for plan %d: %w", s, err)
		}
		w.seeds = append(w.seeds, s)
		w.refs = append(w.refs, report.Matrix(entries))
	}
	return w, nil
}

func (w *chaos) prepare(int, string) error { return nil }

func (w *chaos) run(i int, dir string, tr *tracer) (int, func() error, error) {
	k := i % len(w.seeds)
	plan := faults.NewPlan(w.seeds[k], faults.DefaultDensity)
	defer plan.ReleaseAll()
	fr := &obs.FlightRecorder{Dir: dir, RunID: ledger.CurrentConfig(w.seeds[k], true).RunID()}
	r := &campaign.Runner{Workers: workers, ContinueOnError: true, Faults: plan, SalvageProfiles: true, Progress: fr}
	tr.attach(r)
	sp := tr.beginRunner("campaign.Runner.RunMatrixContext")
	entries, err := r.RunMatrixContext(ctx)
	tr.end(sp)
	if err != nil {
		return 0, nil, err
	}
	sp = tr.begin("report.Matrix")
	out := report.Matrix(entries)
	tr.end(sp)
	tr.observe("obs.flight_dumps_per_campaign", float64(len(fr.Dumps())))
	check := func() error {
		if errs := fr.Errors(); len(errs) > 0 {
			return errs[0]
		}
		return sameRender(fmt.Sprintf("serial reference under plan %d", w.seeds[k]), out, w.refs[k])
	}
	return len(entries), check, nil
}

func (w *chaos) countPass() (*campaign.Runner, []campaign.CellRef) {
	return &campaign.Runner{ContinueOnError: true, Faults: faults.NewPlan(w.seeds[0], faults.DefaultDensity)}, allCells()
}

// resume is `repro -ledger dir -resume`: a delta rerun completing a
// prior record that holds a seeded half of the cells — one of the two
// modes of every (version, scenario) pair, so each half does about the
// same work. Campaigns rotate through several halves derived from the
// seed.
type resume struct {
	priors []string             // store directories, one prior record each
	reruns [][]campaign.CellRef // the cells each prior lacks
	record baseline             // what the merged record must hold
}

func newResume(e env) (*resume, error) {
	rec, err := committedRecord(e.root)
	if err != nil {
		return nil, err
	}
	w := &resume{record: rec}
	all := allCells()
	cfg := ledger.CurrentConfig(0, false)
	rng := rand.New(rand.NewSource(e.seed))
	for k := 0; k < e.variants; k++ {
		// allCells lists each pair's exploit cell just before its
		// injection cell.
		half := make([]campaign.CellRef, 0, len(all)/2)
		for j := 0; j+1 < len(all); j += 2 {
			half = append(half, all[j+rng.Intn(2)])
		}
		dir := filepath.Join(e.scratch, fmt.Sprintf("prior-%d", k))
		store, err := ledger.Open(dir)
		if err != nil {
			return nil, err
		}
		lw, err := store.NewWriter(cfg, len(all))
		if err != nil {
			return nil, err
		}
		if _, err := (&campaign.Runner{Workers: workers, Observer: lw}).RunCellRefs(ctx, half); err != nil {
			lw.Close()
			return nil, fmt.Errorf("resume: prior record: %w", err)
		}
		lw.StripEquivalence()
		if _, err := lw.Close(); err != nil {
			return nil, fmt.Errorf("resume: prior record: %w", err)
		}
		prev, err := store.LatestMatching(cfg)
		if err != nil {
			return nil, err
		}
		w.priors = append(w.priors, dir)
		w.reruns = append(w.reruns, ledger.PlanDelta(prev, cfg).Rerun)
	}
	return w, nil
}

// prepare copies the campaign's prior record into its directory.
func (w *resume) prepare(i int, dir string) error {
	src := w.priors[i%len(w.priors)]
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, rel)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
}

func (w *resume) run(i int, dir string, tr *tracer) (int, func() error, error) {
	cfg := ledger.CurrentConfig(0, false)
	sp := tr.begin("ledger.Open+LatestMatching")
	store, err := ledger.Open(dir)
	var prev *ledger.Record
	if err == nil {
		prev, err = store.LatestMatching(cfg)
	}
	tr.end(sp)
	if err != nil {
		return 0, nil, err
	}
	if prev == nil {
		return 0, nil, fmt.Errorf("no prior record in %s", dir)
	}
	sp = tr.begin("ledger.PlanDelta")
	delta := ledger.PlanDelta(prev, cfg)
	tr.end(sp)
	sp = tr.begin("ledger.Store.NewWriter")
	lw, err := store.NewWriter(cfg, delta.Expected)
	if err == nil && prev.RunID != lw.RunID() {
		lw.Import(delta.Reused)
	}
	tr.end(sp)
	if err != nil {
		return 0, nil, err
	}
	r := &campaign.Runner{Workers: workers, Observer: lw}
	tr.attach(r)
	sp = tr.beginRunner("campaign.Runner.RunCellRefs")
	_, err = r.RunCellRefs(ctx, delta.Rerun)
	tr.end(sp)
	if err != nil {
		lw.Close()
		return 0, nil, err
	}
	rec, err := settle(lw, tr)
	if err != nil {
		return 0, nil, err
	}
	sp = tr.begin("report.Matrix")
	out := report.Matrix(rec.MatrixEntries())
	tr.end(sp)
	want := w.reruns[i%len(w.reruns)]
	check := func() error {
		if !slices.Equal(delta.Rerun, want) {
			return fmt.Errorf("resume planned %d cells, not the %d the prior record lacks", len(delta.Rerun), len(want))
		}
		return w.record.check(rec, out)
	}
	return rec.Completed, check, nil
}

func (w *resume) countPass() (*campaign.Runner, []campaign.CellRef) {
	return &campaign.Runner{}, w.reruns[0]
}
