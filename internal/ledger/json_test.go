package ledger

// The ledger's JSON appenders against encoding/json: every journal line
// must equal json.Marshal of its entry and every record.json must equal
// json.MarshalIndent of its record, byte for byte.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/tracediff"
)

// checkJSON asserts both appenders against the stdlib for rec and each
// of its entries.
func checkJSON(t *testing.T, rec *Record) {
	t.Helper()
	for _, e := range rec.Entries {
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendEntry(nil, e); !bytes.Equal(got, want) {
			t.Fatalf("journal line differs from json.Marshal:\n got %s\nwant %s", got, want)
		}
	}
	want, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	var got bytes.Buffer
	if err := writeRecord(&got, rec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("record differs from json.MarshalIndent:\n got %s\nwant %s", got.Bytes(), want)
	}
}

// fill sets every exported field reachable from v to a non-zero value:
// strings carry bytes the stdlib escapes, pointers are allocated and
// slices hold two filled elements. n numbers the values so no two
// fields are equal.
func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString("<v" + strconv.Itoa(*n) + "> & \"q\"\\\n\x01\u2028\xff")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(-int64(*n) * 1_000_003)
	case reflect.Uint64:
		v.SetUint(1<<63 + uint64(*n))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(v.Index(0), n)
		fill(v.Index(1), n)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), n)
			}
		}
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// TestLedgerJSONCoversEveryField fills every exported field of Record,
// and through its entries of Entry and every type nested in it, so an
// omitempty field the appenders forgot shows up as a missing member.
func TestLedgerJSONCoversEveryField(t *testing.T) {
	var rec Record
	n := 0
	fill(reflect.ValueOf(&rec).Elem(), &n)
	for _, e := range rec.Entries {
		if e.Equivalence.Divergence == nil || len(e.Coverage.EdgeList) == 0 || e.Error.Stack == "" {
			t.Fatal("fill left a nested field zero")
		}
	}
	checkJSON(t, &rec)
	// Zero values: every omitempty member omitted, nil slices null.
	checkJSON(t, &Record{Entries: []*Entry{{}, nil}})
	checkJSON(t, &Record{Config: Config{Versions: []string{}}, Entries: []*Entry{}})
}

// TestBaselineIsWriterOutput holds the committed baseline to exactly
// what WriteRecordFile writes for the record it holds: a hand edit, or
// a member the entry type no longer has, fails here.
func TestBaselineIsWriterOutput(t *testing.T) {
	const path = "../../LEDGER_baseline.json"
	rec, err := LoadRecordFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "record.json")
	if err := WriteRecordFile(out, rec); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("rewriting %s changes it (%d bytes -> %d); regenerate it with `make ledger-baseline`", path, len(want), len(got))
	}
}

// fuzzEntry builds an entry from fuzzed strings and integers. shape
// selects which nested pointers are present and whether each slice is
// nil, empty or full.
func fuzzEntry(a, b, c string, n int64, u uint64, shape uint16) *Entry {
	bit := func(i uint) bool { return shape&(1<<i) != 0 }
	e := &Entry{
		Scenario: a, Version: b, Mode: c,
		Seed: n, SpecDigest: c, Profiled: bit(0),
		SpanV: u, Effects: fuzzStrings(shape, 1, a, b, c), StateAudit: fuzzStrings(shape, 3, c, a), WallNS: -n,
	}
	if bit(5) {
		e.Verdict = &VerdictRecord{ErroneousState: bit(0), SecurityViolation: bit(1), Handled: bit(2), ScriptError: a}
	}
	if bit(6) {
		e.Equivalence = &tracediff.CellVerdict{UseCase: a, Version: b, Tier: tracediff.Tier(c), Basis: tracediff.Basis(a),
			RefVersion: b, BaseEvents: int(n), InjectionEvents: int(u)}
		if bit(7) {
			e.Equivalence.Divergence = &tracediff.Divergence{Index: int(u), A: a, B: b, ALine: int(n), BLine: int(n >> 3)}
		}
	}
	if bit(8) {
		e.Coverage = &CoverageRecord{Digest: c, Edges: int(n)}
		switch {
		case bit(9) && bit(10):
			e.Coverage.EdgeList = []coverage.Edge{{Family: coverage.Family(a), Name: b, Count: u}, {Name: c}}
		case bit(9):
			e.Coverage.EdgeList = []coverage.Edge{}
		}
	}
	if bit(11) {
		e.Error = &campaign.CellError{Cell: a, Class: campaign.FailureClass(b), Message: c}
		if bit(12) {
			e.Error.Stack = a + b
		}
	}
	return e
}

// fuzzStrings is nil unless shape bit i is set, empty unless bit i+1
// is set too, and ss otherwise.
func fuzzStrings(shape uint16, i uint, ss ...string) []string {
	switch {
	case shape&(1<<i) == 0:
		return nil
	case shape&(1<<(i+1)) == 0:
		return []string{}
	}
	return ss
}

// fuzzShape is the shape that reproduces a baseline entry's presence
// pattern in fuzzEntry.
func fuzzShape(e *Entry) uint16 {
	var s uint16
	set := func(i uint, v bool) {
		if v {
			s |= 1 << i
		}
	}
	set(0, e.Profiled)
	set(1, e.Effects != nil)
	set(2, len(e.Effects) != 0)
	set(3, e.StateAudit != nil)
	set(4, len(e.StateAudit) != 0)
	set(5, e.Verdict != nil)
	set(6, e.Equivalence != nil)
	set(7, e.Equivalence != nil && e.Equivalence.Divergence != nil)
	set(8, e.Coverage != nil)
	set(9, e.Coverage != nil && e.Coverage.EdgeList != nil)
	set(10, e.Coverage != nil && len(e.Coverage.EdgeList) != 0)
	set(11, e.Error != nil)
	set(12, e.Error != nil && e.Error.Stack != "")
	return s
}

// FuzzLedgerJSON holds the appenders to encoding/json on entries and
// records built from fuzzed strings, integers and presence shapes,
// seeded with the committed baseline's entries and with the strings the
// stdlib escapes specially.
func FuzzLedgerJSON(f *testing.F) {
	base, err := LoadRecordFile("../../LEDGER_baseline.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range base.Entries {
		first := ""
		if len(e.Effects) > 0 {
			first = e.Effects[0]
		}
		f.Add(e.Scenario, e.Version+"/"+e.Mode, first, int64(e.SpanV), e.SpanV, fuzzShape(e))
	}
	f.Add("<script>&amp;</script>", "\b\f\n\r\t\x00\x1f\x7f\"\\", "\u2028\u2029\xff\xfe\xc3", int64(-1), uint64(1<<63), uint16(0xffff))
	f.Add("", "", "", int64(0), uint64(0), uint16(0))
	f.Fuzz(func(t *testing.T, a, b, c string, n int64, u uint64, shape uint16) {
		e := fuzzEntry(a, b, c, n, u, shape)
		rec := &Record{
			RunID: a,
			Config: Config{RegistryDigest: b, Versions: fuzzStrings(shape, 2, b, a),
				Seed: n, ContinueOnError: shape&1 != 0, BuildVersion: c},
			Cells: int(n), Completed: int(u), Digest: b,
			Entries: []*Entry{e, fuzzEntry(b, c, a, -n, u>>1, ^shape)},
		}
		if shape&(1<<15) != 0 {
			rec.Entries = nil
		}
		checkJSON(t, rec)
	})
}
