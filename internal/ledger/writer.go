package ledger

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/exploits"
	"repro/internal/telemetry"
	"repro/internal/tracediff"
)

// Writer settles a live campaign into a run record: the
// campaign.CellObserver every RQ1/RQ2 artifact of the repro binary
// reads. One from NewWriter keeps the record in memory; one from
// Store.NewWriter also journals every settled cell as one appended
// line, so the record survives a SIGINT or crash with everything that
// had settled. Lines land in completion order, which varies with more
// than one worker; the settled record.json, in dispatch order, is the
// artifact that is byte-identical at any worker count.
//
// Ledger I/O never fails the campaign: journal write errors accumulate
// and surface via Errors / Close, mirroring the flight recorder's
// discipline.
type Writer struct {
	run *Run
	dir string // the record directory; empty for an in-memory writer

	mu      sync.Mutex
	f       *os.File
	line    []byte // the journal line buffer, reused under mu
	entries map[Key]*Entry
	errs    []error
}

// NewWriter returns an in-memory writer for cfg: it journals nothing,
// and its Close settles the record without writing a file.
func NewWriter(cfg Config, expectedCells int) *Writer {
	run := &Run{RunID: cfg.RunID(), Config: cfg, Cells: expectedCells}
	return &Writer{run: run, entries: make(map[Key]*Entry, expectedCells)}
}

// NewWriter opens (creating or resuming) the record directory for cfg
// and starts journaling. A directory left by an earlier run of the same
// config is appended to — same experiment, same run ID, one journal —
// and keeps its original creation provenance.
func (s *Store) NewWriter(cfg Config, expectedCells int) (*Writer, error) {
	w := NewWriter(cfg, expectedCells)
	w.dir = s.RunDir(w.run.RunID)
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: create run dir: %w", err)
	}
	w.run.CreatedUnixNS = time.Now().UnixNano()
	if prev, err := readRunFile(filepath.Join(w.dir, runFile)); err == nil && prev.CreatedUnixNS != 0 {
		w.run.CreatedUnixNS = prev.CreatedUnixNS
	}
	if err := writeRunFile(w.dir, w.run); err != nil {
		return nil, err
	}
	path := filepath.Join(w.dir, journalFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: open journal: %w", err)
	}
	w.f = f
	// A resumed same-config run starts from what the journal already
	// holds; re-executed cells supersede their old entries as they land.
	// A resume has usually just loaded this journal (LatestMatching), so
	// the store's memo of that decode is taken when the journal is
	// still in the state it was decoded from.
	prior, ok := s.takeMemo(path, f)
	if !ok {
		// An unreadable journal is not fatal: the writer starts empty
		// and the resume reruns what the journal held.
		prior, _, _ = readJournal(path)
	}
	for _, e := range prior {
		w.entries[e.Key()] = e
	}
	return w, nil
}

// RunID returns the run's content-addressed identity.
func (w *Writer) RunID() string { return w.run.RunID }

// Dir returns the run's record directory ("" in memory).
func (w *Writer) Dir() string { return w.dir }

// CellSettled implements campaign.CellObserver: it converts one settled
// cell into a journal entry. res is non-nil for a successful cell, cerr
// for a failed one; profile, cov and spanV carry the cell's telemetry
// snapshot, coverage map and span makespan. Only a successful cell's
// profile attests its run; a salvage profile is not persisted.
func (w *Writer) CellSettled(cell campaign.CellRef, res *campaign.RunResult, cerr *campaign.CellError, profile *telemetry.CellProfile, cov *coverage.Map, spanV uint64, wall time.Duration) {
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
	if res != nil && profile != nil {
		e.Profiled = true
		e.Effects, e.StateAudit = tracediff.CanonicalStreams(e.Version, campaign.MachineFrames, profile.Events)
	}
	if cov != nil {
		e.Coverage = &CoverageRecord{Digest: cov.Digest(), Edges: cov.Len(), EdgeList: cov.Edges()}
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
	w.mu.Lock()
	defer w.mu.Unlock()
	w.entries[e.Key()] = e
	if w.f == nil {
		return
	}
	w.line = append(appendEntry(w.line[:0], e), '\n')
	if _, err := w.f.Write(w.line); err != nil {
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

// Close settles the record and, for a store-backed writer, writes
// record.json, finalizes run.json and closes the journal. The returned
// record is the run's canonical outcome; the first accumulated I/O
// error (if any) is the returned error.
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
	if w.dir != "" {
		if err := WriteRecordFile(filepath.Join(w.dir, recordFile), rec); err != nil {
			w.fail(err)
		}
		w.run.Completed = rec.Completed
		w.run.Digest = rec.Digest
		if err := writeRunFile(w.dir, w.run); err != nil {
			w.fail(err)
		}
	}
	if errs := w.Errors(); len(errs) > 0 {
		return rec, errs[0]
	}
	return rec, nil
}

// writeRunFile replaces run.json atomically (writeFileAtomic): Runs
// skips a run whose run.json does not parse, so a torn rewrite would
// hide a complete journal from a resume.
func writeRunFile(dir string, r *Run) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("ledger: marshal run metadata: %w", err)
	}
	write := func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	}
	if err := writeFileAtomic(filepath.Join(dir, runFile), write); err != nil {
		return fmt.Errorf("ledger: write run metadata: %w", err)
	}
	return nil
}
