package campaign_test

// Pooled environments: a cleanly completed cell's environment is reset
// in place and reused by a later cell. Nothing a result holds may alias
// the pooled state, so a later run cannot rewrite an earlier one.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/report"
)

// renderMatrix renders every artifact a matrix run's entries feed: the
// JSON export, the matrix table, and each cell's console, transcript
// and evidence.
func renderMatrix(t *testing.T, entries []campaign.MatrixEntry) string {
	t.Helper()
	var b bytes.Buffer
	if err := campaign.WriteExport(&b, entries, 0, false); err != nil {
		t.Fatal(err)
	}
	b.WriteString(report.Matrix(entries))
	for _, e := range entries {
		b.WriteString(e.Version + "/" + e.UseCase + "/" + string(e.Mode) + "\n")
		b.WriteString(strings.Join(e.Result.Console, "\n"))
		b.WriteString(strings.Join(e.Result.Outcome.Log, "\n"))
		b.WriteString(strings.Join(e.Result.Verdict.Evidence, "\n"))
		b.WriteString(report.Transcript(e.Result))
	}
	return b.String()
}

// TestPooledRunsAliasNoResult runs the matrix serially twice in one
// process, so every cell of the second run reuses an environment an
// earlier cell dirtied, and re-renders the first run afterward. Both
// renderings of the first run, the second run and a fresh-boot run
// must all be equal.
func TestPooledRunsAliasNoResult(t *testing.T) {
	set := withSnapshots(t)
	run := func() []campaign.MatrixEntry {
		t.Helper()
		entries, err := (&campaign.Runner{Workers: 1}).RunMatrixContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return entries
	}
	set(true)
	first := run()
	want := renderMatrix(t, first)
	second := run()
	if got := renderMatrix(t, first); got != want {
		t.Error("the first run's artifacts changed after a second run reused its environments")
	}
	if got := renderMatrix(t, second); got != want {
		t.Error("the second, pooled run renders differently from the first")
	}
	set(false)
	if got := renderMatrix(t, run()); got != want {
		t.Error("the pooled runs render differently from a fresh-boot run")
	}
}
