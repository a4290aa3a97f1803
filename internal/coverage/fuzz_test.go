package coverage

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCoverageReport holds the coverage report's JSON form (the
// -coverage artifact tracecheck cov reads) to its contract on arbitrary
// bytes: decoding and verifying never panic, and a report that verifies
// re-encodes to one that decodes and verifies again with the same
// digest. The seeds are the committed matrix baseline and the two
// edits Verify once let through: a forged total_edges and a forged
// family count.
func FuzzCoverageReport(f *testing.F) {
	baseline, err := os.ReadFile(filepath.Join("..", "..", "COVERAGE_matrix.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(baseline)
	for _, edit := range [][2]string{
		{`"total_edges": 34`, `"total_edges": 999`},
		{`"family": "domctl",
      "edges": 3`, `"family": "domctl",
      "edges": 500`},
	} {
		tampered := bytes.Replace(baseline, []byte(edit[0]), []byte(edit[1]), 1)
		if bytes.Equal(tampered, baseline) {
			f.Fatalf("seed edit %q does not apply to the baseline", edit[0])
		}
		f.Add(tampered)
	}
	for _, s := range []string{"", "null", "{}", `{"cells":[{"cell":"a","edges":[{}]}]}`, `{"union":[{"family":"x"}]}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rep Report
		if json.Unmarshal(data, &rep) != nil || rep.Verify() != nil {
			return
		}
		enc, err := json.Marshal(&rep)
		if err != nil {
			t.Fatalf("re-encode a verified report: %v", err)
		}
		var again Report
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("decode a re-encoded report: %v", err)
		}
		if err := again.Verify(); err != nil {
			t.Fatalf("re-encoded report fails Verify: %v", err)
		}
		if again.Digest != rep.Digest {
			t.Fatalf("re-encoded report digest %s, want %s", again.Digest, rep.Digest)
		}
	})
}
