package ledger

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/exploits"
	"repro/internal/span"
	"repro/internal/tracediff"
)

// Writer journals a live campaign into a run record directory. It is
// the campaign.CellObserver the repro binary attaches under `-ledger`:
// every settled cell becomes one appended journal line, so the record
// survives a SIGINT or crash at any point with everything that had
// settled. Lines land in settle (completion) order, which varies from
// run to run with more than one worker; the settled record.json, whose
// entries Settle puts in dispatch order, is the artifact that is
// byte-identical at any worker count.
//
// Ledger I/O never fails the campaign: write errors accumulate and
// surface via Errors / Close, mirroring the flight recorder's
// discipline.
type Writer struct {
	store *Store
	run   *Run
	dir   string

	mu      sync.Mutex
	f       *os.File
	entries map[Key]*Entry
	errs    []error
}

// NewWriter opens (creating or resuming) the record directory for cfg
// and starts journaling. A directory left by an earlier run of the same
// config is appended to — same experiment, same run ID, one journal —
// and keeps its original creation provenance.
func (s *Store) NewWriter(cfg Config, expectedCells int) (*Writer, error) {
	id := cfg.RunID()
	dir := s.RunDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: create run dir: %w", err)
	}
	run := &Run{RunID: id, Config: cfg, CreatedUnixNS: time.Now().UnixNano(), Cells: expectedCells}
	if prev, err := readRunFile(filepath.Join(dir, runFile)); err == nil && prev.CreatedUnixNS != 0 {
		run.CreatedUnixNS = prev.CreatedUnixNS
	}
	if err := writeRunFile(dir, run); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: open journal: %w", err)
	}
	w := &Writer{store: s, run: run, dir: dir, f: f, entries: make(map[Key]*Entry, expectedCells)}
	// A resumed same-config run starts from what the journal already
	// holds; re-executed cells supersede their old entries as they land.
	if prior, err := readJournal(filepath.Join(dir, journalFile)); err == nil {
		for _, e := range prior {
			w.entries[e.Key()] = e
		}
	}
	return w, nil
}

// RunID returns the run's content-addressed identity.
func (w *Writer) RunID() string { return w.run.RunID }

// Dir returns the run's record directory.
func (w *Writer) Dir() string { return w.dir }

// CellSettled implements campaign.CellObserver: it converts one settled
// cell into a journal entry. res is non-nil for a successful cell, cerr
// for a failed one; cov, lat and spanV carry the cell's coverage map,
// RQ3 latency and span makespan.
func (w *Writer) CellSettled(cell campaign.CellRef, res *campaign.RunResult, cerr *campaign.CellError, cov *coverage.Map, lat span.Latency, spanV uint64, wall time.Duration) {
	e := &Entry{
		Scenario: cell.UseCase,
		Version:  cell.Version,
		Mode:     string(cell.Mode),
		Seed:     w.run.Config.Seed,
		SpanV:    spanV,
		Error:    cerr,
		WallNS:   wall.Nanoseconds(),
	}
	if s, err := exploits.SpecByName(e.Scenario); err == nil {
		e.SpecDigest = s.Digest()
	}
	if res != nil && res.Verdict != nil {
		e.Verdict = &VerdictRecord{
			ErroneousState:    res.Verdict.ErroneousState,
			SecurityViolation: res.Verdict.SecurityViolation,
			Handled:           res.Verdict.Handled,
		}
		if res.Outcome != nil && res.Outcome.Err != nil {
			e.Verdict.ScriptError = res.Outcome.Err.Error()
		}
	}
	if res != nil && res.Profile != nil {
		e.Profiled = true
		e.Effects, e.StateAudit = tracediff.CanonicalStreams(e.Version, campaign.MachineFrames, res.Profile.Events)
	}
	if cov != nil {
		e.Coverage = &CoverageRecord{Digest: cov.Digest(), Edges: cov.Len(), EdgeList: cov.Edges()}
	}
	if lat.Found || lat.TriggerV != 0 {
		l := lat
		e.Latency = &l
	}
	w.append(e)
}

// Import journals entries reused from a prior record (the resume plan's
// carried-over cells), so the new run's record directory is
// self-contained. Imported entries are canonical (wall fields already
// zeroed) and keep their original content.
func (w *Writer) Import(entries []*Entry) {
	for _, e := range entries {
		c := *e
		w.append(&c)
	}
}

// RecordEquivalence attaches graded RQ2 verdicts to their injection
// entries and journals the updated entries (superseding lines; the
// journal stays append-only).
func (w *Writer) RecordEquivalence(verdicts []tracediff.CellVerdict) {
	for i := range verdicts {
		cv := verdicts[i]
		k := Key{Scenario: cv.UseCase, Version: cv.Version, Mode: string(campaign.ModeInjection), Seed: w.run.Config.Seed}
		w.mu.Lock()
		e, ok := w.entries[k]
		w.mu.Unlock()
		if !ok {
			w.fail(fmt.Errorf("ledger: equivalence verdict for unrecorded cell %s", k))
			continue
		}
		c := *e
		c.Equivalence = &cv
		w.append(&c)
	}
}

// StripEquivalence removes carried RQ2 verdicts from the journaled
// entries (superseding re-appends, in dispatch order so the journal
// stays deterministic). A merged record that cannot be graded — some
// cell failed — must not keep verdicts inherited from a prior fully
// successful run: an uninterrupted rerun would not have them.
func (w *Writer) StripEquivalence() {
	w.mu.Lock()
	var stale []*Entry
	for _, e := range w.entries {
		if e.Equivalence != nil {
			stale = append(stale, e)
		}
	}
	w.mu.Unlock()
	ix := newOrderIndex(w.run.Config.Versions)
	sort.SliceStable(stale, func(i, j int) bool { return ix.less(stale[i], stale[j]) })
	for _, e := range stale {
		c := *e
		c.Equivalence = nil
		w.append(&c)
	}
}

// append journals one entry and indexes it (last write wins).
func (w *Writer) append(e *Entry) {
	data, err := json.Marshal(e)
	if err != nil {
		w.fail(fmt.Errorf("ledger: marshal entry %s: %w", e.Key(), err))
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.entries[e.Key()] = e
	if w.f == nil {
		return
	}
	if _, err := w.f.Write(append(data, '\n')); err != nil {
		w.errs = append(w.errs, fmt.Errorf("ledger: journal %s: %w", e.Key(), err))
	}
}

func (w *Writer) fail(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.errs = append(w.errs, err)
}

// Snapshot settles the entries journaled so far into a canonical record
// without closing the writer — the live view behind the /runs endpoints
// and the input to equivalence grading before close.
func (w *Writer) Snapshot() *Record {
	w.mu.Lock()
	entries := make([]*Entry, 0, len(w.entries))
	for _, e := range w.entries {
		entries = append(entries, e)
	}
	w.mu.Unlock()
	return Settle(w.run, entries)
}

// Errors returns the accumulated ledger I/O errors.
func (w *Writer) Errors() []error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]error(nil), w.errs...)
}

// Close settles the record, writes record.json, finalizes run.json and
// closes the journal. The returned record is the run's canonical
// outcome; the first accumulated I/O error (if any) is the returned
// error.
func (w *Writer) Close() (*Record, error) {
	rec := w.Snapshot()
	w.mu.Lock()
	if w.f != nil {
		if err := w.f.Close(); err != nil {
			w.errs = append(w.errs, fmt.Errorf("ledger: close journal: %w", err))
		}
		w.f = nil
	}
	w.mu.Unlock()
	if err := WriteRecordFile(filepath.Join(w.dir, recordFile), rec); err != nil {
		w.fail(err)
	}
	w.run.Completed = rec.Completed
	w.run.Digest = rec.Digest
	if err := writeRunFile(w.dir, w.run); err != nil {
		w.fail(err)
	}
	if errs := w.Errors(); len(errs) > 0 {
		return rec, errs[0]
	}
	return rec, nil
}

// writeRunFile writes run.json atomically enough for a single-writer
// store: full rewrite, short file.
func writeRunFile(dir string, r *Run) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("ledger: marshal run metadata: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, runFile), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("ledger: write run metadata: %w", err)
	}
	return nil
}
