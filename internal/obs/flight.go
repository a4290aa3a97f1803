package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// FlightRecorder dumps a failing cell's salvaged telemetry — the
// bounded event ring its goroutine held at the moment of failure — as
// flight-<runid>-<cell>.jsonl the instant the engine settles the
// failure, so a chaos campaign's crash evidence survives even if the
// process never reaches its normal trace flush. It implements
// campaign.Progress and is safe for concurrent workers.
//
// Dumps are created exclusively: a name collision (the same cell
// failing again in a consecutive run of the same configuration) gets a
// numeric suffix instead of truncating the earlier evidence.
type FlightRecorder struct {
	// Dir is where dumps land ("." when empty).
	Dir string

	// RunID namespaces dump files by campaign run identity. When empty
	// the legacy flight-<cell>.jsonl name is used.
	RunID string

	mu     sync.Mutex
	dumps  []string
	errors []error
}

// CellFinished implements campaign.Progress: a settled failure with a
// salvageable profile is dumped immediately. Hung and canceled cells
// carry no profile (their goroutine was abandoned with its recorder)
// and produce no dump.
func (f *FlightRecorder) CellFinished(cell string, _ time.Duration, profile *telemetry.CellProfile, cerr *campaign.CellError) {
	if cerr == nil || profile == nil {
		return
	}
	dir := f.Dir
	if dir == "" {
		dir = "."
	}
	stem := "flight-"
	if f.RunID != "" {
		stem += f.RunID + "-"
	}
	stem = filepath.Join(dir, stem+strings.ReplaceAll(cell, "/", "-"))
	f.mu.Lock()
	defer f.mu.Unlock()
	path, err := f.dump(stem, profile)
	if err != nil {
		f.errors = append(f.errors, fmt.Errorf("obs: flight dump for %s: %w", cell, err))
		return
	}
	f.dumps = append(f.dumps, path)
}

// dump writes the profile to stem.jsonl, falling back to stem-2.jsonl,
// stem-3.jsonl, … when the name is taken, and returns the path used.
func (f *FlightRecorder) dump(stem string, profile *telemetry.CellProfile) (string, error) {
	var file *os.File
	var path string
	for n := 1; ; n++ {
		path = stem
		if n > 1 {
			path += fmt.Sprintf("-%d", n)
		}
		path += ".jsonl"
		var err error
		file, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err == nil {
			break
		}
		if !os.IsExist(err) || n >= 1000 {
			return "", err
		}
	}
	if err := telemetry.WriteTrace(file, []*telemetry.CellProfile{profile}); err != nil {
		file.Close()
		return "", err
	}
	return path, file.Close()
}

// Dumps returns the paths written so far.
func (f *FlightRecorder) Dumps() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.dumps...)
}

// Errors returns dump failures (a flight recorder never fails the
// campaign; callers report these as warnings).
func (f *FlightRecorder) Errors() []error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]error(nil), f.errors...)
}
