package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The JSONL trace format: one JSON object per line, so traces stream,
// grep cleanly, and parse incrementally. Two record shapes share the
// "kind" discriminator: every event of a cell (kind = the event kind),
// followed by one "cell_end" record carrying the cell's wall time,
// counters and drop count — the anchor a reader uses to align a
// diverging Table III cell with its metrics.

// TraceRecord is the wire form of one JSONL line.
type TraceRecord struct {
	Cell   string `json:"cell"`
	Kind   string `json:"kind"`
	Seq    uint64 `json:"seq,omitempty"`
	Dom    uint16 `json:"dom,omitempty"`
	Nr     int32  `json:"nr,omitempty"`
	Addr   uint64 `json:"addr,omitempty"`
	Val    uint64 `json:"val,omitempty"`
	Label  string `json:"label,omitempty"`
	Detail string `json:"detail,omitempty"`

	// cell_end fields.
	WallNS        int64          `json:"wall_ns,omitempty"`
	Counters      []CounterValue `json:"counters,omitempty"`
	DroppedEvents uint64         `json:"dropped_events,omitempty"`

	// Line is the 1-based source line the record was parsed from, set by
	// ReadTrace so consumers can point at the offending line of a
	// malformed or incomplete trace. Never serialized.
	Line int `json:"-"`
}

// CellEndKind tags the per-cell summary record closing a cell's events.
const CellEndKind = "cell_end"

// WriteTrace writes the profiles as a JSONL trace: each cell's whole
// retained stream in order (its shared boot prefix, then its own
// events), closed by the cell's cell_end record. Profiles are written
// in the order given (the runner hands them over in cell order, so the
// trace is deterministic up to wall times at any worker count).
func WriteTrace(w io.Writer, profiles []*CellProfile) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, p := range profiles {
		if p == nil {
			continue
		}
		for _, evs := range [2][]Event{p.Boot, p.Events} {
			for i := range evs {
				e := &evs[i]
				rec := TraceRecord{
					Cell:   p.Cell,
					Kind:   e.Kind.String(),
					Seq:    e.Seq,
					Dom:    e.Dom,
					Nr:     e.Nr,
					Addr:   e.Addr,
					Val:    e.Val,
					Label:  e.Label,
					Detail: e.Detail,
				}
				if err := enc.Encode(rec); err != nil {
					return fmt.Errorf("telemetry: writing trace for %s: %w", p.Cell, err)
				}
			}
		}
		end := TraceRecord{
			Cell:          p.Cell,
			Kind:          CellEndKind,
			WallNS:        p.WallNS,
			Counters:      p.Counters,
			DroppedEvents: p.DroppedEvents,
		}
		if err := enc.Encode(end); err != nil {
			return fmt.Errorf("telemetry: writing cell_end for %s: %w", p.Cell, err)
		}
	}
	return bw.Flush()
}

// ReadTrace parses a JSONL trace, returning every record in order. It
// is the read side the trace tooling and tests share.
func ReadTrace(r io.Reader) ([]TraceRecord, error) {
	var out []TraceRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec TraceRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("telemetry: trace line %d: %w", line, err)
		}
		rec.Line = line
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading trace after line %d: %w", line, err)
	}
	return out, nil
}
