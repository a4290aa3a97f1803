package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzReadTrace holds the JSONL trace parser to its contract on
// arbitrary bytes: it never panics; the records it accepts carry
// strictly increasing line numbers, each naming a non-empty input line;
// and re-encoding the records line by line, as WriteTrace does, reads
// back to the same records.
func FuzzReadTrace(f *testing.F) {
	r := NewRecorder(0)
	r.HypercallEnter(1, 1, NewOp("hypercall", "mmu_update"))
	r.HypercallExit(1, 1, NewOp("hypercall", "mmu_update"), nil)
	r.PageTypeGet(42, "l1")
	r.Evidence("XSA-148-priv", "evidence <&>  ")
	var trace bytes.Buffer
	if err := WriteTrace(&trace, []*CellProfile{r.Profile("4.6/XSA-148-priv/injection", 123456)}); err != nil {
		f.Fatal(err)
	}
	f.Add(trace.Bytes())
	for _, s := range []string{
		"",
		"not json\n",
		`{"cell":"a","kind":"x"` + "\n",
		"\n\r\n{}\r\n\n",
		`{"cell":"a","seq":-1}`,
		`{"counters":[]}` + "\n" + `{"counters":null,"CELL":"b","cell":"c"}`,
		"null\n[1,2]\n",
		"{\"label\":\"\xff\xfe\"}\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		lines := bytes.Split(data, []byte("\n"))
		prev := 0
		for i, rec := range recs {
			if rec.Line <= prev || rec.Line > len(lines) {
				t.Fatalf("record %d: line %d after line %d of %d", i, rec.Line, prev, len(lines))
			}
			if len(bytes.TrimSuffix(lines[rec.Line-1], []byte("\r"))) == 0 {
				t.Fatalf("record %d points at empty line %d", i, rec.Line)
			}
			prev = rec.Line
		}

		var enc bytes.Buffer
		e := json.NewEncoder(&enc)
		for i := range recs {
			if err := e.Encode(&recs[i]); err != nil {
				t.Fatalf("re-encode record %d: %v", i, err)
			}
		}
		again, err := ReadTrace(&enc)
		if err != nil {
			t.Fatalf("re-read of re-encoded trace: %v", err)
		}
		if !reflect.DeepEqual(roundTripView(again), roundTripView(recs)) {
			t.Fatalf("round trip changed the records:\n got %+v\nwant %+v", again, recs)
		}
	})
}

// roundTripView strips what a round trip may legitimately change: the
// source line numbers, and an empty counter list that omitempty drops.
func roundTripView(recs []TraceRecord) []TraceRecord {
	out := make([]TraceRecord, len(recs))
	for i, rec := range recs {
		rec.Line = 0
		if len(rec.Counters) == 0 {
			rec.Counters = nil
		}
		out[i] = rec
	}
	return out
}
