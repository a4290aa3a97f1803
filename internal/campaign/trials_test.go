package campaign_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/hv"
	"repro/internal/report"
	"repro/internal/workload"
)

// TestTrialsByteIdentical renders the randomized-campaign comparison
// (100 trials, seed 2023) and the availability-under-injection table
// for every version and diffs them against the frozen artifact. The
// trials and rows take their environments from the snapshot pool the
// way campaign cells do, so a fork that carried state from an earlier
// trial into a later one would move a count or a completion rate here.
func TestTrialsByteIdentical(t *testing.T) {
	var b strings.Builder
	for _, v := range hv.Versions() {
		cmp, err := campaign.CompareWithBaseline(v, 100, 2023)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(report.BaselineComparison(cmp))
		rows, err := campaign.AvailabilityUnderInjection(v, workload.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(report.Availability(rows))
	}
	want, err := os.ReadFile(filepath.Join("testdata", "trials.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("trial and availability tables drifted from the frozen artifact:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
