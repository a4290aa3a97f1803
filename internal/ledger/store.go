package ledger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// The on-disk layout. A store directory holds one subdirectory per run
// ID:
//
//	<dir>/<run-id>/run.json     — Run metadata (wall-time provenance lives here)
//	<dir>/<run-id>/cells.jsonl  — append-only journal, one Entry per line,
//	                              completion order, crash-safe
//	<dir>/<run-id>/record.json  — canonical settled Record, written on close
//
// The journal is the source of truth: Load rebuilds the record from it
// (last entry per key wins, so a resumed run's re-executions supersede
// interrupted ones) and record.json is a derived, self-verifying
// convenience — the byte-identity artifact, the committed-baseline
// format, and the diff input.

const (
	runFile     = "run.json"
	journalFile = "cells.jsonl"
	recordFile  = "record.json"
)

// Store is a directory of campaign run records.
type Store struct {
	dir string

	// mu guards memo: the obs server's /runs endpoints call Load on the
	// live store while a campaign writes through it.
	mu   sync.Mutex
	memo journalMemo
}

// journalStamp identifies one state of a journal file: its path, and
// the size and modification time read from an open handle on it. The
// zero stamp (a missing journal) matches no open file.
type journalStamp struct {
	path  string
	size  int64
	mtime int64
}

func stampOf(path string, f *os.File) (journalStamp, error) {
	fi, err := f.Stat()
	if err != nil {
		return journalStamp{}, err
	}
	return journalStamp{path: path, size: fi.Size(), mtime: fi.ModTime().UnixNano()}, nil
}

// journalMemo is the entries the store's last Load decoded. A resume
// loads the prior record (LatestMatching) and then opens a writer on
// the same run directory (NewWriter); the memo lets the writer start
// from that decode instead of reading the journal a second time.
type journalMemo struct {
	stamp   journalStamp
	entries []*Entry
}

// takeMemo clears the memo and returns its entries when they were
// decoded from the state the journal at path, open as f, is in now; any
// append, truncation or rewrite since moves the size or mtime and
// misses.
func (s *Store) takeMemo(path string, f *os.File) ([]*Entry, bool) {
	s.mu.Lock()
	m := s.memo
	s.memo = journalMemo{}
	s.mu.Unlock()
	now, err := stampOf(path, f)
	if err != nil || now != m.stamp {
		return nil, false
	}
	return m.entries, true
}

// Open opens (creating if needed) a run store directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// RunDir returns the record directory for a run ID.
func (s *Store) RunDir(id string) string { return filepath.Join(s.dir, id) }

// Runs lists the store's run metadata, newest first (by creation time,
// run ID as the tiebreak). Directories without a readable run.json are
// skipped — a run is only visible once its metadata hit the disk.
func (s *Store) Runs() ([]*Run, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ledger: list runs: %w", err)
	}
	var runs []*Run
	for _, de := range ents {
		if !de.IsDir() {
			continue
		}
		r, err := readRunFile(filepath.Join(s.dir, de.Name(), runFile))
		if err != nil {
			continue
		}
		runs = append(runs, r)
	}
	sort.Slice(runs, func(i, j int) bool {
		if runs[i].CreatedUnixNS != runs[j].CreatedUnixNS {
			return runs[i].CreatedUnixNS > runs[j].CreatedUnixNS
		}
		return runs[i].RunID < runs[j].RunID
	})
	return runs, nil
}

// Load rebuilds a run's canonical record from its journal. The journal
// may be live (a running or interrupted campaign): entries settle
// last-wins per key, canceled cells drop out, and the result is the
// same canonical form a clean close writes.
func (s *Store) Load(id string) (*Record, error) {
	dir := s.RunDir(id)
	run, err := readRunFile(filepath.Join(dir, runFile))
	if err != nil {
		return nil, err
	}
	entries, stamp, err := readJournal(filepath.Join(dir, journalFile))
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.memo = journalMemo{stamp: stamp, entries: entries}
	s.mu.Unlock()
	return Settle(run, entries), nil
}

// LatestMatching returns the newest run record compatible with cfg
// (same seed, flags, versions and build — the registry digest may
// drift), or nil when the store holds none.
func (s *Store) LatestMatching(cfg Config) (*Record, error) {
	runs, err := s.Runs()
	if err != nil {
		return nil, err
	}
	for _, r := range runs {
		if cfg.Compatible(r.Config) {
			return s.Load(r.RunID)
		}
	}
	return nil, nil
}

// readRunFile decodes one run.json.
func readRunFile(path string) (*Run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: read run metadata: %w", err)
	}
	var r Run
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("ledger: parse %s: %w", path, err)
	}
	return &r, nil
}

// readJournal decodes a cells.jsonl journal, last entry per key wins.
// A truncated final line (crash mid-append) is skipped, not fatal: the
// cell it carried simply reruns on resume. The stamp is taken before
// the scan, so a journal appended to meanwhile decodes at least what
// the stamp names and never matches it again; a missing journal has
// the zero stamp.
//
// Decoded entries are shared, never mutated in place: Settle and the
// Writer copy an entry before changing any field, which is what lets a
// Load's decode seed a NewWriter (Store.takeMemo).
func readJournal(path string) ([]*Entry, journalStamp, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, journalStamp{}, nil
		}
		return nil, journalStamp{}, fmt.Errorf("ledger: open journal: %w", err)
	}
	defer f.Close()
	stamp, err := stampOf(path, f)
	if err != nil {
		return nil, journalStamp{}, fmt.Errorf("ledger: stat journal: %w", err)
	}

	byKey := make(map[Key]int)
	var entries []*Entry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			continue
		}
		if i, ok := byKey[e.Key()]; ok {
			entries[i] = &e
			continue
		}
		byKey[e.Key()] = len(entries)
		entries = append(entries, &e)
	}
	if err := sc.Err(); err != nil {
		return nil, journalStamp{}, fmt.Errorf("ledger: scan journal: %w", err)
	}
	return entries, stamp, nil
}

// WriteRecordFile writes a record's settled JSON form, the format
// `make ledger-baseline` commits and `tracecheck runs diff` consumes:
// the bytes of json.MarshalIndent(rec, "", "  ") and a newline, the
// canonical interchange form byte-identity is asserted over.
func WriteRecordFile(path string, rec *Record) error {
	write := func(f io.Writer) error {
		bw := bufio.NewWriterSize(f, 32<<10)
		if err := writeRecord(bw, rec); err != nil {
			return err
		}
		return bw.Flush()
	}
	if err := writeFileAtomic(path, write); err != nil {
		return fmt.Errorf("ledger: write record: %w", err)
	}
	return nil
}

// writeFileAtomic writes a file through a temporary sibling, path plus
// ".tmp", renamed over it once complete, so a reader — and a resume
// after the writer died — finds the old file or the new one, never a
// torn one. Nothing calls Sync, so this covers process death, not
// power loss. A store has one writer per run directory, so the fixed
// temporary name cannot collide.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// LoadRecordFile reads and verifies a settled record file (a run
// directory's record.json or a committed baseline).
func LoadRecordFile(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: read record: %w", err)
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("ledger: parse %s: %w", path, err)
	}
	if err := rec.Verify(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}
