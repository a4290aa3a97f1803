package ledger

import (
	"io"
	"strconv"
	"unicode/utf8"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/tracediff"
)

// The ledger's on-disk JSON writer. Journal lines and record.json sit
// on a ledgered campaign's serial path, where encoding/json spends most
// of its time on reflection. The jsonWriter appends the ledger's types
// field by field instead, and
// emits exactly the bytes encoding/json does — json.Marshal in compact
// mode, json.MarshalIndent(v, "", "  ") in indented mode: struct field
// order, every omitempty, null for nil slices and pointers, and the
// stdlib's HTML-safe string escaping. FuzzLedgerJSON and
// TestLedgerJSONCoversEveryField hold it to the stdlib, so a field added
// to any of these types without a line here fails the suite. Reading
// stays on encoding/json (readJournal, LoadRecordFile).

// jsonWriter appends JSON to b. In indented mode every member starts a
// new line indented two spaces per level and keys are followed by ": ";
// an empty object or array stays "{}" or "[]", as json.Indent leaves it.
type jsonWriter struct {
	b      []byte
	indent bool
	depth  int
	// empty reports that the innermost open object or array has no
	// member yet (no comma before the next one, no line break before
	// its close).
	empty bool
	// out receives b between a record's entries (spill), so a record
	// streams to its file one entry at a time.
	out io.Writer
	err error
}

// appendEntry appends e as json.Marshal renders it: one journal line,
// without the newline.
func appendEntry(b []byte, e *Entry) []byte {
	w := jsonWriter{b: b}
	w.entry(e)
	return w.b
}

// writeRecord streams rec to out as json.MarshalIndent(rec, "", "  ")
// renders it, plus the trailing newline: the record.json bytes.
func writeRecord(out io.Writer, rec *Record) error {
	w := jsonWriter{b: make([]byte, 0, 4096), indent: true, out: out}
	w.record(rec)
	w.b = append(w.b, '\n')
	w.spill()
	return w.err
}

// spill hands the bytes appended so far to out.
func (w *jsonWriter) spill() {
	if w.err != nil {
		return
	}
	_, w.err = w.out.Write(w.b)
	w.b = w.b[:0]
}

func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

func (w *jsonWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
}

// elem starts the next member of the open object or array.
func (w *jsonWriter) elem() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.empty = false
	w.newline()
}

func (w *jsonWriter) newline() {
	if !w.indent {
		return
	}
	w.b = append(w.b, '\n')
	for i := 0; i < w.depth; i++ {
		w.b = append(w.b, ' ', ' ')
	}
}

// key starts an object member. Keys are the types' json tag names,
// none of which needs escaping.
func (w *jsonWriter) key(name string) {
	w.elem()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, '"', ':')
	if w.indent {
		w.b = append(w.b, ' ')
	}
}

func (w *jsonWriter) str(name, s string) {
	w.key(name)
	w.b = appendJSONString(w.b, s)
}

func (w *jsonWriter) int(name string, v int64) {
	w.key(name)
	w.b = strconv.AppendInt(w.b, v, 10)
}

func (w *jsonWriter) uint(name string, v uint64) {
	w.key(name)
	w.b = strconv.AppendUint(w.b, v, 10)
}

func (w *jsonWriter) bool(name string, v bool) {
	w.key(name)
	w.b = strconv.AppendBool(w.b, v)
}

// strs renders a []string member; omitempty members skip the call
// when the slice is empty.
func (w *jsonWriter) strs(name string, ss []string) {
	w.key(name)
	if ss == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.open('[')
	for _, s := range ss {
		w.elem()
		w.b = appendJSONString(w.b, s)
	}
	w.close(']')
}

// entry renders an Entry; a nil entry (only reachable as a Record
// element) is null.
func (w *jsonWriter) entry(e *Entry) {
	if e == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.open('{')
	w.str("scenario", e.Scenario)
	w.str("version", e.Version)
	w.str("mode", e.Mode)
	if e.Seed != 0 {
		w.int("seed", e.Seed)
	}
	if e.SpecDigest != "" {
		w.str("spec_digest", e.SpecDigest)
	}
	if e.Profiled {
		w.bool("profiled", true)
	}
	if e.Verdict != nil {
		w.key("verdict")
		w.verdict(e.Verdict)
	}
	if e.Equivalence != nil {
		w.key("equivalence")
		w.cellVerdict(e.Equivalence)
	}
	if e.Coverage != nil {
		w.key("coverage")
		w.coverage(e.Coverage)
	}
	if e.SpanV != 0 {
		w.uint("span_v", e.SpanV)
	}
	if len(e.Effects) != 0 {
		w.strs("effects", e.Effects)
	}
	if len(e.StateAudit) != 0 {
		w.strs("state_audit", e.StateAudit)
	}
	if e.Error != nil {
		w.key("error")
		w.cellError(e.Error)
	}
	if e.WallNS != 0 {
		w.int("wall_ns", e.WallNS)
	}
	w.close('}')
}

func (w *jsonWriter) verdict(v *VerdictRecord) {
	w.open('{')
	w.bool("erroneous_state", v.ErroneousState)
	w.bool("security_violation", v.SecurityViolation)
	w.bool("handled", v.Handled)
	if v.ScriptError != "" {
		w.str("script_error", v.ScriptError)
	}
	w.close('}')
}

func (w *jsonWriter) cellVerdict(cv *tracediff.CellVerdict) {
	w.open('{')
	w.str("use_case", cv.UseCase)
	w.str("version", cv.Version)
	w.str("tier", string(cv.Tier))
	w.str("basis", string(cv.Basis))
	if cv.RefVersion != "" {
		w.str("ref_version", cv.RefVersion)
	}
	w.int("base_events", int64(cv.BaseEvents))
	w.int("injection_events", int64(cv.InjectionEvents))
	if d := cv.Divergence; d != nil {
		w.key("divergence")
		w.open('{')
		w.int("index", int64(d.Index))
		w.str("a", d.A)
		w.str("b", d.B)
		if d.ALine != 0 {
			w.int("a_line", int64(d.ALine))
		}
		if d.BLine != 0 {
			w.int("b_line", int64(d.BLine))
		}
		w.close('}')
	}
	w.close('}')
}

func (w *jsonWriter) coverage(c *CoverageRecord) {
	w.open('{')
	w.str("digest", c.Digest)
	w.int("edges", int64(c.Edges))
	if len(c.EdgeList) != 0 {
		w.key("edge_list")
		w.open('[')
		for i := range c.EdgeList {
			w.elem()
			w.edge(&c.EdgeList[i])
		}
		w.close(']')
	}
	w.close('}')
}

func (w *jsonWriter) edge(e *coverage.Edge) {
	w.open('{')
	w.str("family", string(e.Family))
	w.str("name", e.Name)
	w.uint("count", e.Count)
	w.close('}')
}

func (w *jsonWriter) cellError(e *campaign.CellError) {
	w.open('{')
	w.str("cell", e.Cell)
	w.str("class", string(e.Class))
	w.str("message", e.Message)
	if e.Stack != "" {
		w.str("stack", e.Stack)
	}
	w.close('}')
}

func (w *jsonWriter) config(c *Config) {
	w.open('{')
	w.str("registry_digest", c.RegistryDigest)
	w.strs("versions", c.Versions)
	w.int("seed", c.Seed)
	w.bool("continue_on_error", c.ContinueOnError)
	w.str("build_version", c.BuildVersion)
	w.close('}')
}

// record renders a Record, spilling to out after every entry.
func (w *jsonWriter) record(r *Record) {
	w.open('{')
	w.str("run_id", r.RunID)
	w.key("config")
	w.config(&r.Config)
	w.int("cells", int64(r.Cells))
	w.int("completed", int64(r.Completed))
	w.str("digest", r.Digest)
	w.key("entries")
	if r.Entries == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.open('[')
		for _, e := range r.Entries {
			w.elem()
			w.entry(e)
			w.spill()
		}
		w.close(']')
	}
	w.close('}')
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// escapes it: '"' and '\\' backslashed; \b, \f, \n, \r and \t by name;
// other control bytes and the HTML-sensitive '<', '>' and '&' as
// \u00XX; U+2028 and U+2029 as \u2028 and \u2029; each byte of
// invalid UTF-8 as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
