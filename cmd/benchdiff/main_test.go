package main

import (
	"reflect"
	"testing"
)

// TestRegressionsGateBytes pins the gate: one threshold applies to both
// ns/op and B/op, and B/op is gated only where both runs recorded it.
func TestRegressionsGateBytes(t *testing.T) {
	base := result{NsPerOp: 1000, BytesPerOp: 1 << 20, AllocsPerOp: 100}
	cases := []struct {
		name string
		new  result
		want []string
	}{
		{"unchanged", base, nil},
		{"within threshold", result{NsPerOp: 1900, BytesPerOp: 1.9 * (1 << 20)}, nil},
		{"slower", result{NsPerOp: 2100, BytesPerOp: 1 << 20}, []string{"ns/op"}},
		{"fatter", result{NsPerOp: 1000, BytesPerOp: 64 << 20}, []string{"B/op"}},
		{"both", result{NsPerOp: 3000, BytesPerOp: 3 << 20}, []string{"ns/op", "B/op"}},
		{"smaller", result{NsPerOp: 500, BytesPerOp: 1 << 10}, nil},
		{"no -benchmem on the new side", result{NsPerOp: 1000}, nil},
	}
	for _, c := range cases {
		if got := regressions(base, c.new, 2.0); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: regressions = %v, want %v", c.name, got, c.want)
		}
	}
	noBytes := result{NsPerOp: 1000}
	if got := regressions(noBytes, result{NsPerOp: 1000, BytesPerOp: 1 << 20}, 2.0); got != nil {
		t.Errorf("old side without B/op: regressions = %v, want none", got)
	}
}

// TestRegressionsGateAllocs pins the allocs/op gate: the same threshold
// as ns/op and B/op, checked only where both runs recorded a nonzero
// allocation count.
func TestRegressionsGateAllocs(t *testing.T) {
	base := result{NsPerOp: 1000, BytesPerOp: 1 << 20, AllocsPerOp: 100}
	cases := []struct {
		name string
		new  result
		want []string
	}{
		{"within threshold", result{NsPerOp: 1000, BytesPerOp: 1 << 20, AllocsPerOp: 200}, nil},
		{"more allocations", result{NsPerOp: 1000, BytesPerOp: 1 << 20, AllocsPerOp: 201}, []string{"allocs/op"}},
		{"all three", result{NsPerOp: 3000, BytesPerOp: 3 << 20, AllocsPerOp: 300}, []string{"ns/op", "B/op", "allocs/op"}},
		{"fewer allocations", result{NsPerOp: 1000, BytesPerOp: 1 << 20, AllocsPerOp: 1}, nil},
		{"none recorded on the new side", result{NsPerOp: 1000, BytesPerOp: 1 << 20}, nil},
	}
	for _, c := range cases {
		if got := regressions(base, c.new, 2.0); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: regressions = %v, want %v", c.name, got, c.want)
		}
	}
	noAllocs := result{NsPerOp: 1000, BytesPerOp: 1 << 20}
	if got := regressions(noAllocs, base, 2.0); got != nil {
		t.Errorf("old side without allocs/op: regressions = %v, want none", got)
	}
}

// TestTrimProcsPairsAcrossCPUCounts checks that rows recorded at
// GOMAXPROCS 2 pair with the suffix-free names of a one-CPU run, and
// that a one-CPU run's own trailing numbers are left alone.
func TestTrimProcsPairsAcrossCPUCounts(t *testing.T) {
	r := result{NsPerOp: 1}
	twoCPU := map[string]result{"BenchmarkFullMatrix-2": r, "BenchmarkMatrixParallel/workers-4-2": r}
	want := map[string]result{"BenchmarkFullMatrix": r, "BenchmarkMatrixParallel/workers-4": r}
	if got := trimProcs(twoCPU); !reflect.DeepEqual(got, want) {
		t.Errorf("trimProcs(two CPUs) = %v, want %v", got, want)
	}
	oneCPU := map[string]result{"BenchmarkFullMatrix": r, "BenchmarkMatrixParallel/workers-4": r}
	if got := trimProcs(oneCPU); !reflect.DeepEqual(got, oneCPU) {
		t.Errorf("trimProcs(one CPU) = %v, want the names unchanged", got)
	}
	mixed := map[string]result{"BenchmarkMatrixParallel/workers-1": r, "BenchmarkMatrixParallel/workers-4": r}
	if got := trimProcs(mixed); !reflect.DeepEqual(got, mixed) {
		t.Errorf("trimProcs(distinct trailing numbers) = %v, want the names unchanged", got)
	}
}
