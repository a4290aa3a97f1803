package campaign

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/hv"
	"repro/internal/workload"
)

// TestBystanderCellsIsolateAndAgree holds the availability rows to the
// runner's contract now that they run as injection cells with a
// bystander phase: the rows are the same at any pool size, and a
// bystander cell that panics settles as a classified failure instead of
// taking the process down, while the cells around it still complete.
func TestBystanderCellsIsolateAndAgree(t *testing.T) {
	cfg := workload.DefaultConfig()
	// The rows run on a zero-value Runner, one worker per P.
	rows := func(v hv.Version, procs int) []AvailabilityRow {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r, err := AvailabilityUnderInjection(v, cfg)
		if err != nil {
			t.Fatalf("%s at %d workers: %v", v.Name, procs, err)
		}
		return r
	}
	for _, v := range hv.Versions() {
		serial, parallel := rows(v, 1), rows(v, 4)
		if len(serial) == 0 || !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: rows at 4 workers differ from 1 worker:\n%v\n%v", v.Name, parallel, serial)
		}
	}

	v := hv.Version413()
	p := campaignPlan()
	spec, err := p.spec("XSA-182-test")
	if err != nil {
		t.Fatal(err)
	}
	cells := []cell{
		{version: v, spec: spec, mode: ModeInjection, bystander: &cfg},
		{version: v, spec: panicking("bystander-panic"), mode: ModeInjection, bystander: &cfg},
		{version: v, spec: spec, mode: ModeInjection, bystander: &cfg},
	}
	_, err = (&Runner{Workers: 2}).runEntries(context.Background(), cells)
	var cerr *CellError
	if !errors.As(err, &cerr) || cerr.Class != FailPanic || cerr.Cell != "4.13/bystander-panic/injection" {
		t.Fatalf("batch error = %v, want the panicking bystander cell's %s record", err, FailPanic)
	}
	entries, err := (&Runner{Workers: 2, ContinueOnError: true}).runEntries(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, en := range entries {
		if i == 1 {
			if en.Err == nil || en.Err.Class != FailPanic || en.Result != nil {
				t.Errorf("panicking bystander cell settled as %+v, want a %s record", en, FailPanic)
			}
			continue
		}
		if en.Err != nil || en.Result.bystander == nil || en.Result.bystander.Completed == 0 {
			t.Errorf("cell %d beside the panic: err %v, result %+v; want a completed bystander workload", i, en.Err, en.Result)
		}
	}
}
