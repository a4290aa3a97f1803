package campaign_test

import (
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/exploits"
	"repro/internal/hv"
)

// TestCellAllocs pins how many heap allocations one forked 4.6 cell
// makes on the no-recorder path (a zero-value Runner), per use case
// and mode. The count is exact and does not depend on the machine, so
// it gates each cell's garbage where wall time is too noisy to. Each
// ceiling is the count measured when it was set: a cell that allocates
// more fails, and a change that cuts a cell's allocations lowers its
// ceiling. The race detector's instrumentation allocates on its own,
// so the test runs only without it.
func TestCellAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	set := withSnapshots(t)
	set(true)
	ceilings := []struct {
		useCase            string
		exploit, injection float64
	}{
		{"XSA-212-crash", 56, 52},
		{"XSA-212-priv", 105, 95},
		{"XSA-148-priv", 96, 95},
		{"XSA-182-test", 44, 43},
		{"XSA-387-leak", 43, 41},
		{"XSA-387-x2", 51, 48},
		{"XSA-387-x3", 58, 54},
		{"EVT-flood-64", 39, 38},
		{"EVT-flood-512", 41, 41},
		{"EVT-flood-dom0", 41, 41},
		{"DOMCTL-pause", 39, 38},
		{"DOMCTL-pauseall", 43, 42},
		{"DOMCTL-zombie", 39, 37},
		{"DOMCTL-exfil", 45, 44},
		{"MX-heap-smash", 40, 36},
		{"MX-heap-wide", 55, 42},
		{"MX-idt-gp", 44, 40},
	}
	if specs := exploits.Specs(); len(ceilings) != len(specs) {
		t.Fatalf("%d ceilings for %d registered use cases", len(ceilings), len(specs))
	}
	r := &campaign.Runner{}
	v := hv.Version46()
	for _, c := range ceilings {
		for mode, ceiling := range map[campaign.Mode]float64{campaign.ModeExploit: c.exploit, campaign.ModeInjection: c.injection} {
			got := testing.AllocsPerRun(20, func() {
				if _, err := r.RunContext(context.Background(), v, c.useCase, mode); err != nil {
					t.Fatalf("%s/%s: %v", c.useCase, mode, err)
				}
			})
			if got > ceiling {
				t.Errorf("%s/%s/%s: %.0f allocations per cell, ceiling %.0f", v.Name, c.useCase, mode, got, ceiling)
			}
		}
	}
}
