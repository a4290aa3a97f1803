// Package repro holds the benchmark harness: one benchmark per table and
// figure of the paper (regenerating the artifact per iteration from live
// experiment runs; Table III and Fig. 4 are projections of the campaign
// matrix, so BenchmarkFullMatrix times them), plus microbenchmarks of the
// substrate operations and the ablations DESIGN.md §5 calls out.
package repro

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/cpu"
	"repro/internal/device"
	"repro/internal/events"
	"repro/internal/exploits"
	"repro/internal/fieldstudy"
	"repro/internal/hv"
	"repro/internal/inject"
	"repro/internal/ledger"
	"repro/internal/mm"
	"repro/internal/obs"
	"repro/internal/pagetable"
	"repro/internal/report"
	"repro/internal/span"
	"repro/internal/telemetry"
	"repro/internal/txstore"
	"repro/internal/workload"
)

// --- One benchmark per table and figure ---

// BenchmarkTableI regenerates Table I: classify the 100-advisory dataset
// and render the class/functionality table.
func BenchmarkTableI(b *testing.B) {
	ds := fieldstudy.Dataset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := fieldstudy.Classify(ds)
		if err := t.Verify(); err != nil {
			b.Fatal(err)
		}
		_ = report.TableI(t)
	}
}

// BenchmarkTableII regenerates Table II from the use-case intrusion
// models.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = report.TableII(inject.UseCaseModels())
	}
}

// BenchmarkFig1 and BenchmarkFig2 regenerate the conceptual diagrams.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = report.Fig1()
	}
}

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = report.Fig2()
	}
}

// BenchmarkFig3 builds both intrusion state machines and runs the
// equivalence check.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = report.Fig3(inject.GuestWritablePageTableEntry)
	}
}

// BenchmarkFullMatrix runs the complete 102-cell campaign the repro binary
// prints with -matrix, on the serial (Workers: 1) path.
func BenchmarkFullMatrix(b *testing.B) {
	benchRow(b, fullMatrixRow())
}

// BenchmarkMatrixParallel runs the same 102-cell campaign through the
// parallel engine at increasing pool sizes. Output is byte-identical to
// the serial path at every size; on a machine with >= 4 CPUs the larger
// pools should cut wall-clock time by the core count (each cell is an
// independent fresh environment, so the campaign is embarrassingly
// parallel). Compare against BenchmarkFullMatrix for the speedup.
func BenchmarkMatrixParallel(b *testing.B) {
	for _, row := range matrixParallelRows() {
		b.Run(row.name, func(b *testing.B) { benchRow(b, row) })
	}
}

// BenchmarkMatrixTelemetry runs the 102-cell campaign with telemetry off
// (nil registry: every instrumented path takes the predicted-not-taken
// nil branch), on (per-cell recorder, ring events, counter merges
// into the shared registry), and on with the live observability server
// listening and the scheduler timeline it serves installed as the
// scheduler hook (per-cell state updates under the timeline mutex,
// plus a goroutine accepting scrapes). The "off" sub-benchmark is the
// guard for the disabled-sink contract: it must stay within noise of
// BenchmarkMatrixParallel's pre-telemetry numbers (the same guard
// covers the event bus — a nil Sched hook is the same
// predicted-not-taken nil branch); "server" tracks the -listen
// overhead recorded in BENCH_matrix.json; "coverage" tracks the cost of
// the per-cell coverage maps on top of plain telemetry (the -coverage
// flag's overhead — with coverage disabled, "on" is the baseline that
// must not move); "stream" tracks the timeline publishing on an event
// bus (-listen's bus with no subscriber draining it, the common case
// of a campaign nobody is watching); "spans" and "ledger" track the
// -spans and -ledger collectors, each through its settle step.
func BenchmarkMatrixTelemetry(b *testing.B) {
	for _, row := range matrixTelemetryRows() {
		b.Run(row.name, func(b *testing.B) { benchRow(b, row) })
	}
}

// matrixRow is one matrix benchmark row. setup builds what lives for
// the whole row (a shared registry, a listening server, torn down
// through tb.Cleanup) and returns op, one iteration — one 102-cell
// matrix. Whatever a single campaign owns (a coverage or span
// collector, an event bus, a ledger store) is built inside op, so an
// op costs the same at any iteration count;
// TestMatrixTelemetryStationary holds every row to it.
type matrixRow struct {
	name  string
	setup func(tb testing.TB) (op func())
}

// benchRow times one row's op.
func benchRow(b *testing.B, row matrixRow) {
	op := row.setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// runMatrix runs one 102-cell matrix on r and renders it.
func runMatrix(tb testing.TB, r *campaign.Runner) {
	entries, err := r.RunMatrixContext(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	_ = report.Matrix(entries)
}

// loopRow is a row whose op reruns the matrix on one runner.
func loopRow(name string, r func() *campaign.Runner) matrixRow {
	return matrixRow{name, func(tb testing.TB) func() {
		rr := r()
		return func() { runMatrix(tb, rr) }
	}}
}

func fullMatrixRow() matrixRow {
	return loopRow("FullMatrix", func() *campaign.Runner { return &campaign.Runner{Workers: 1} })
}

func matrixParallelRows() []matrixRow {
	var rows []matrixRow
	for _, w := range []int{1, 2, 4, 8} {
		rows = append(rows, loopRow(fmt.Sprintf("workers-%d", w), func() *campaign.Runner { return &campaign.Runner{Workers: w} }))
	}
	return rows
}

func matrixTelemetryRows() []matrixRow {
	runner := func(reg *telemetry.Registry, sched campaign.SchedObserver) *campaign.Runner {
		return &campaign.Runner{Workers: 4, Telemetry: reg, Sched: sched}
	}
	return []matrixRow{
		loopRow("off", func() *campaign.Runner { return runner(nil, nil) }),
		loopRow("on", func() *campaign.Runner { return runner(telemetry.NewRegistry(), nil) }),
		{"server", func(tb testing.TB) func() {
			reg := telemetry.NewRegistry()
			tl := events.NewTimeline(nil)
			srv := obs.NewServer(reg)
			srv.SetSchedule(tl)
			if _, err := srv.Listen("127.0.0.1:0"); err != nil {
				tb.Fatal(err)
			}
			tb.Cleanup(func() { srv.Shutdown(context.Background()) })
			r := runner(reg, tl)
			return func() { runMatrix(tb, r) }
		}},
		{"coverage", func(tb testing.TB) func() {
			reg := telemetry.NewRegistry()
			return func() {
				r := runner(reg, nil)
				r.Coverage = coverage.NewCollector()
				runMatrix(tb, r)
				_ = r.Coverage.Report()
			}
		}},
		{"stream", func(tb testing.TB) func() {
			reg := telemetry.NewRegistry()
			return func() {
				bus := events.NewBus(0, 0)
				runMatrix(tb, runner(reg, events.NewTimeline(bus)))
				bus.Close()
			}
		}},
		// spans: the per-cell span trees plus the forest's canonical
		// rendering, the golden-pin surface -spans settles into.
		{"spans", func(tb testing.TB) func() {
			reg := telemetry.NewRegistry()
			return func() {
				r := runner(reg, nil)
				r.Spans = span.NewCollector()
				runMatrix(tb, r)
				_ = r.Spans.Forest().Canonical()
			}
		}},
		// ledger: journal every cell into a fresh record store, grade
		// equivalence from the journaled record and settle it, as
		// `repro -ledger` does; the op removes its store again.
		{"ledger", func(tb testing.TB) func() {
			reg := telemetry.NewRegistry()
			cfg := ledger.CurrentConfig(0, false)
			dir := filepath.Join(tb.TempDir(), "store")
			return func() {
				defer os.RemoveAll(dir)
				store, err := ledger.Open(dir)
				if err != nil {
					tb.Fatal(err)
				}
				lw, err := store.NewWriter(cfg, ledger.PlanDelta(nil, cfg).Expected)
				if err != nil {
					tb.Fatal(err)
				}
				r := runner(reg, nil)
				r.Observer = lw
				runMatrix(tb, r)
				verdicts, err := ledger.Equivalence(lw.Snapshot())
				if err != nil {
					tb.Fatal(err)
				}
				lw.RecordEquivalence(verdicts)
				if _, err := lw.Close(); err != nil {
					tb.Fatal(err)
				}
			}
		}},
	}
}

// TestMatrixTelemetryStationary is the stationarity guard on the
// matrix benchmark rows (BenchmarkMatrixTelemetry, BenchmarkFullMatrix
// and BenchmarkMatrixParallel): a row's allocs per matrix must not depend
// on how many matrices ran before. Allocation counts are close to
// deterministic, so a drift between two fixed iteration counts is state
// carried across iterations — the defect that once let the coverage row
// re-settle every earlier matrix's batch on each Report — not timing
// noise.
func TestMatrixTelemetryStationary(t *testing.T) {
	const short, long, tolerance = 5, 20, 0.05
	rows := append(matrixTelemetryRows(), fullMatrixRow())
	for _, row := range matrixParallelRows() {
		rows = append(rows, matrixRow{"MatrixParallel-" + row.name, row.setup})
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			a := testing.AllocsPerRun(short, row.setup(t))
			b := testing.AllocsPerRun(long, row.setup(t))
			t.Logf("%.0f allocs/op at %d iterations, %.0f at %d", a, short, b, long)
			if drift := math.Abs(b-a) / a; drift > tolerance {
				t.Errorf("%.0f allocs/op at %d iterations, %.0f at %d: %.1f%% drift, want <= %.0f%%",
					a, short, b, long, 100*drift, 100*tolerance)
			}
		})
	}
}

// BenchmarkLedgerIO times the run ledger's persistence path alone, with
// no campaign, over the committed LEDGER_baseline.json entries (the
// settled 102-cell matrix): journal appends the 102 entries as journal
// lines, close settles them and writes record.json, and resume-load is
// what `repro -ledger dir -resume` does before running the delta —
// LatestMatching on a store whose journal holds half the cells, then
// NewWriter on the same run.
func BenchmarkLedgerIO(b *testing.B) {
	base, err := ledger.LoadRecordFile("LEDGER_baseline.json")
	if err != nil {
		b.Fatal(err)
	}
	cfg := ledger.CurrentConfig(0, false)
	// writer opens a writer on a fresh store and journals prior.
	writer := func(b *testing.B, dir string, prior []*ledger.Entry) *ledger.Writer {
		store, err := ledger.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		w, err := store.NewWriter(cfg, base.Cells)
		if err != nil {
			b.Fatal(err)
		}
		w.Import(prior)
		return w
	}
	closeWriter := func(b *testing.B, w *ledger.Writer) {
		if _, err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("journal", func(b *testing.B) {
		w := writer(b, b.TempDir(), nil)
		journal := filepath.Join(w.Dir(), "cells.jsonl")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Import(base.Entries)
			b.StopTimer()
			// The journal is opened for append, so emptying it keeps
			// every op writing to a file of the same size.
			if err := os.Truncate(journal, 0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.StopTimer()
		closeWriter(b, w)
	})

	b.Run("close", func(b *testing.B) {
		root := b.TempDir()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := filepath.Join(root, "store")
			if err := os.RemoveAll(dir); err != nil {
				b.Fatal(err)
			}
			w := writer(b, dir, base.Entries)
			b.StartTimer()
			closeWriter(b, w)
		}
	})

	b.Run("resume-load", func(b *testing.B) {
		dir := b.TempDir()
		// One of the two modes of every (version, scenario) pair: the
		// baseline lists each pair's exploit cell before its injection.
		half := make([]*ledger.Entry, 0, len(base.Entries)/2)
		for i := 0; i < len(base.Entries); i += 2 {
			half = append(half, base.Entries[i])
		}
		closeWriter(b, writer(b, dir, half))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store, err := ledger.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			prev, err := store.LatestMatching(cfg)
			if err != nil || prev == nil || prev.Completed != len(half) {
				b.Fatalf("prior record %v, %v; want %d cells", prev, err, len(half))
			}
			w, err := store.NewWriter(cfg, base.Cells)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			closeWriter(b, w)
			b.StartTimer()
		}
	})
}

// --- Substrate microbenchmarks ---

// Allocator microbenchmarks. The free-set used to be a linear-scan free
// list (AllocAt O(n), AllocRange O(n^2) worst case); it is now a
// two-level bitmap with O(1) Alloc/AllocAt/Free and O(range)
// AllocRange, which these benchmarks track on a 64 Ki-frame machine —
// large enough that a linear scan would dominate per-environment boot.

const benchFrames = 1 << 16

func benchMemory(b *testing.B) *mm.Memory {
	b.Helper()
	m, err := mm.NewMemory(benchFrames)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkAlloc measures one lowest-first Alloc/Free cycle with half
// the machine already allocated (the allocator's steady state during an
// environment boot).
func BenchmarkAlloc(b *testing.B) {
	m := benchMemory(b)
	for i := 0; i < benchFrames/2; i++ {
		if _, err := m.Alloc(mm.Dom0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mfn, err := m.Alloc(mm.Dom0)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Free(mfn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocAt measures claiming a specific high frame — the case
// the old free list scanned O(n) for.
func BenchmarkAllocAt(b *testing.B) {
	m := benchMemory(b)
	target := mm.MFN(benchFrames - 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.AllocAt(target, mm.Dom0); err != nil {
			b.Fatal(err)
		}
		if err := m.Free(target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocRange measures finding and claiming a 64-frame run
// beyond a fragmented low region (every other frame of the first 4096
// allocated) — the case the old implementation re-scanned the whole
// free list for at every candidate start.
func BenchmarkAllocRange(b *testing.B) {
	m := benchMemory(b)
	for f := 0; f < 4096; f += 2 {
		if err := m.AllocAt(mm.MFN(f), mm.Dom0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start, err := m.AllocRange(64, mm.Dom0)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 64; j++ {
			if err := m.Free(start + mm.MFN(j)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchEnv(b *testing.B, v hv.Version, mode campaign.Mode) *campaign.Environment {
	b.Helper()
	e, err := campaign.NewEnvironment(v, mode)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkBootEnvironment measures building one full environment:
// hypervisor boot plus four domains with page tables and kernels.
func BenchmarkBootEnvironment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := campaign.NewEnvironment(hv.Version46(), campaign.ModeInjection); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotBuild measures the one-time cost of booting and
// sealing a (version, mode) environment snapshot — paid once per
// process per pair, then amortized over every forked cell.
func BenchmarkSnapshotBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := campaign.BuildSnapshot(hv.Version46(), campaign.ModeInjection); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCellFork measures stamping one cell environment out of the
// sealed snapshot and returning it to the pool — the per-cell setup cost
// that replaces the full boot measured by BenchmarkBootEnvironment.
// clean forks and recycles an environment untouched; dirty first writes
// 9 frames (the most any matrix cell materializes), so the reset drops
// and keeps 9 frame buffers and the next fork's writes reuse them.
func BenchmarkCellFork(b *testing.B) {
	// Warm the cache so the one-time build is not measured.
	if _, recycle, err := campaign.NewForkedEnvironment(hv.Version46(), campaign.ModeInjection); err != nil {
		b.Fatal(err)
	} else {
		recycle()
	}
	fork := func(b *testing.B, dirty int) {
		for i := 0; i < b.N; i++ {
			e, recycle, err := campaign.NewForkedEnvironment(hv.Version46(), campaign.ModeInjection)
			if err != nil {
				b.Fatal(err)
			}
			base := e.Attacker.Domain().Base()
			for f := 0; f < dirty; f++ {
				if err := e.HV.Memory().WriteU64((base + mm.MFN(f)).Addr(), uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			recycle()
		}
	}
	b.Run("clean", func(b *testing.B) { fork(b, 0) })
	b.Run("dirty", func(b *testing.B) { fork(b, 9) })
}

// BenchmarkPageWalk measures one 4-level guest translation.
func BenchmarkPageWalk(b *testing.B) {
	e := benchEnv(b, hv.Version46(), campaign.ModeExploit)
	d := e.Attacker.Domain()
	va := d.PhysmapVA(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.HV.Walker().Translate(d.CR3(), va, pagetable.AccessRead, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHypercallDispatch measures the cheapest hypercall round trip.
func BenchmarkHypercallDispatch(b *testing.B) {
	e := benchEnv(b, hv.Version46(), campaign.ModeExploit)
	d := e.Attacker.Domain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Hypercall(hv.HypercallConsoleIO, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMMUUpdate measures one validated PTE update (map + unmap so
// reference counts stay balanced across iterations).
func BenchmarkMMUUpdate(b *testing.B) {
	e := benchEnv(b, hv.Version48(), campaign.ModeExploit)
	d := e.Attacker.Domain()
	pfn, err := d.AllocPage()
	if err != nil {
		b.Fatal(err)
	}
	target, err := d.P2M().Lookup(pfn)
	if err != nil {
		b.Fatal(err)
	}
	base, err := pagetable.LeafEntryAddr(e.HV.Memory(), d.CR3(), d.PhysmapVA(0))
	if err != nil {
		b.Fatal(err)
	}
	ptr := base + mm.PhysAddr((uint64(d.Frames())+30)*pagetable.EntrySize)
	entry := pagetable.NewEntry(target, pagetable.FlagPresent|pagetable.FlagRW|pagetable.FlagUser)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Hypercall(hv.HypercallMMUUpdate, &hv.MMUUpdateArgs{
			Updates: []hv.MMUUpdate{{Ptr: ptr, Val: entry}, {Ptr: ptr, Val: 0}},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoryExchange measures the XSA-212 hypercall on its benign
// path (populate + exchange per iteration).
func BenchmarkMemoryExchange(b *testing.B) {
	e := benchEnv(b, hv.Version46(), campaign.ModeExploit)
	d := e.Attacker.Domain()
	dstPFN, err := d.AllocPage()
	if err != nil {
		b.Fatal(err)
	}
	dst := d.PhysmapVA(dstPFN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pop := &hv.PopulatePhysmapArgs{PFN: mm.PFN(0x20000 + i)}
		if err := d.Hypercall(hv.HypercallMemoryOp, pop); err != nil {
			b.Fatal(err)
		}
		if err := d.Hypercall(hv.HypercallMemoryOp, &hv.ExchangeArgs{
			In: []mm.PFN{pop.PFN}, OutStart: dst,
		}); err != nil {
			b.Fatal(err)
		}
		// Release the exchanged frame so the machine does not fill up.
		if err := d.Hypercall(hv.HypercallMemoryOp, &hv.DecreaseReservationArgs{PFN: pop.PFN}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExceptionDelivery measures one #PF delivery through the
// in-memory IDT to the builtin handler.
func BenchmarkExceptionDelivery(b *testing.B) {
	e := benchEnv(b, hv.Version46(), campaign.ModeExploit)
	vcpu := e.Attacker.Domain().VCPU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vcpu.DeliverException(cpu.VectorPageFault); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInjectorWriteLinear measures the injector's linear-mode write
// (hypercall dispatch + layout translation + store).
func BenchmarkInjectorWriteLinear(b *testing.B) {
	e := benchEnv(b, hv.Version46(), campaign.ModeInjection)
	dst := e.HV.IDTR().Base + 0x700 // an unused IDT slot's bytes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Injector.WriteLinear64(dst, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploitScenario measures one full XSA-182-test run in a fresh
// environment (the per-run cost of a campaign cell).
func BenchmarkExploitScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := (&campaign.Runner{Workers: 1}).RunContext(context.Background(), hv.Version46(), "XSA-182-test", campaign.ModeExploit); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationInjectorPath compares the injector's guest-facing
// hypercall route against a direct in-hypervisor write: the cost of the
// portable interface the paper argues for.
func BenchmarkAblationInjectorPath(b *testing.B) {
	b.Run("hypercall", func(b *testing.B) {
		e := benchEnv(b, hv.Version46(), campaign.ModeInjection)
		dst := e.HV.IDTR().Base + 0x700
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := e.Injector.WriteLinear64(dst, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		e := benchEnv(b, hv.Version46(), campaign.ModeInjection)
		dst := e.HV.IDTR().Base + 0x700
		buf := make([]byte, 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := e.HV.WriteHV(dst, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationLinearVsPhysMode compares the injector's two address
// modes: linear (translate per page) vs physical (direct after the
// map_domain_page-style mapping).
func BenchmarkAblationLinearVsPhysMode(b *testing.B) {
	e := benchEnv(b, hv.Version46(), campaign.ModeInjection)
	heap := e.HV.HeapBase() + 1
	linear := uint64(0xffff830000000000) + uint64(heap)*mm.PageSize // directmap VA
	buf := make([]byte, 64)
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := e.Injector.ArbitraryAccess(linear, buf, inject.WriteLinear); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("physical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := e.Injector.ArbitraryAccess(uint64(heap.Addr()), buf, inject.WritePhys); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationValidationByVersion compares mmu_update cost across
// version profiles: the price of the added validation and hardening.
func BenchmarkAblationValidationByVersion(b *testing.B) {
	for _, v := range hv.Versions() {
		b.Run(v.Name, func(b *testing.B) {
			e := benchEnv(b, v, campaign.ModeExploit)
			d := e.Attacker.Domain()
			pfn, err := d.AllocPage()
			if err != nil {
				b.Fatal(err)
			}
			target, err := d.P2M().Lookup(pfn)
			if err != nil {
				b.Fatal(err)
			}
			base, err := pagetable.LeafEntryAddr(e.HV.Memory(), d.CR3(), d.PhysmapVA(0))
			if err != nil {
				b.Fatal(err)
			}
			ptr := base + mm.PhysAddr((uint64(d.Frames())+31)*pagetable.EntrySize)
			entry := pagetable.NewEntry(target, pagetable.FlagPresent|pagetable.FlagRW|pagetable.FlagUser)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Hypercall(hv.HypercallMMUUpdate, &hv.MMUUpdateArgs{
					Updates: []hv.MMUUpdate{{Ptr: ptr, Val: entry}, {Ptr: ptr, Val: 0}},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationScanGranularity varies how the XSA-148 scan reads the
// window (per-page fingerprint read vs whole-window read), the kind of
// design choice an injector campaign tunes.
func BenchmarkAblationScanGranularity(b *testing.B) {
	newWindow := func(b *testing.B) (*campaign.Environment, *exploits.Outcome) {
		b.Helper()
		e, err := campaign.NewEnvironment(hv.Version46(), campaign.ModeExploit)
		if err != nil {
			b.Fatal(err)
		}
		env, err := e.ScenarioEnv(campaign.ModeExploit)
		if err != nil {
			b.Fatal(err)
		}
		spec, err := exploits.SpecByName("XSA-148-priv")
		if err != nil {
			b.Fatal(err)
		}
		return e, spec.Run(env)
	}
	b.Run("per-page-64B", func(b *testing.B) {
		e, o := newWindow(b)
		sig := make([]byte, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for p := 0; p < 512; p++ {
				if err := e.Attacker.Peek(o.Artifacts.WindowVA+uint64(p)*mm.PageSize, sig); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("whole-window", func(b *testing.B) {
		e, o := newWindow(b)
		buf := make([]byte, pagetable.SuperpageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := e.Attacker.Peek(o.Artifacts.WindowVA, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBaselineComparison runs the randomized-injection and
// hypercall-baseline campaigns head to head (the coverage argument of
// the fuzz extension, DESIGN.md §5).
func BenchmarkBaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := campaign.CompareWithBaseline(hv.Version413(), 10, 2023); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStateInjector measures the second injector's cheapest
// operation (keep-page-access induction).
func BenchmarkStateInjector(b *testing.B) {
	mem, err := mm.NewMemory(1 << 16)
	if err != nil {
		b.Fatal(err)
	}
	h, err := hv.New(mem, hv.Version413())
	if err != nil {
		b.Fatal(err)
	}
	if err := inject.EnableStateOps(h); err != nil {
		b.Fatal(err)
	}
	d, err := h.CreateDomain("guest01", 64, false)
	if err != nil {
		b.Fatal(err)
	}
	c := inject.NewStateClient(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leaked, err := c.KeepPageAccess()
		if err != nil {
			b.Fatal(err)
		}
		// Reap the leaked frame between iterations so the bench does not
		// exhaust the machine (reaping is not part of the measured op's
		// semantics, but it is symmetrical and cheap).
		if err := h.Memory().PutRef(leaked); err != nil {
			b.Fatal(err)
		}
		if err := h.Memory().PutType(leaked); err != nil {
			b.Fatal(err)
		}
		if err := h.Memory().Free(leaked); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVenomInjection measures the Section III running example's
// injection path end to end: payload write, handler overwrite, trigger.
func BenchmarkVenomInjection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := benchEnv(b, hv.Version413(), campaign.ModeInjection)
		fdc, err := device.New(e.HV, e.Dom0, e.Attacker.Domain().ID())
		if err != nil {
			b.Fatal(err)
		}
		o := device.RunVenomInjection(fdc, e.Attacker, e.Injector)
		if o.Err != nil || !o.Escalated {
			b.Fatalf("venom injection failed: %v", o.Err)
		}
	}
}

// BenchmarkTxstoreTransfer measures one journaled transfer of the tenant
// database (guest-memory reads/writes through real page walks).
func BenchmarkTxstoreTransfer(b *testing.B) {
	e := benchEnv(b, hv.Version413(), campaign.ModeInjection)
	s, err := txstore.New(e.Attacker, 8, 1<<40)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Transfer(i%8, (i+1)%8, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTxstoreACIDAudit measures the full consistency audit.
func BenchmarkTxstoreACIDAudit(b *testing.B) {
	e := benchEnv(b, hv.Version413(), campaign.ModeInjection)
	s, err := txstore.New(e.Attacker, 8, 1000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Check(8 * 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTLB measures guest memory access with and without the
// translation cache: the simulator-level analogue of the hardware TLB's
// value, and the knob WithTLBCapacity exposes.
func BenchmarkAblationTLB(b *testing.B) {
	run := func(b *testing.B, capacity int) {
		mem, err := mm.NewMemory(2048)
		if err != nil {
			b.Fatal(err)
		}
		h, err := hv.New(mem, hv.Version48(), hv.WithTLBCapacity(capacity))
		if err != nil {
			b.Fatal(err)
		}
		d, err := h.CreateDomain("guest01", 64, false)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 8)
		va := d.PhysmapVA(5)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := d.VCPU().ReadVirt(va, buf, true); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("tlb-64", func(b *testing.B) { run(b, 64) })
	b.Run("tlb-off", func(b *testing.B) { run(b, 0) })
}

// BenchmarkWorkload measures the mixed guest workload's throughput over
// one persistent session.
func BenchmarkWorkload(b *testing.B) {
	e := benchEnv(b, hv.Version413(), campaign.ModeInjection)
	session, err := workload.NewSession(e.Guests[1])
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.Config{Ops: 100, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := session.Run(cfg)
		if res.Stopped {
			b.Fatal(res.StopReason)
		}
	}
}

// BenchmarkAvailabilityExperiment measures the full availability-under-
// injection experiment on one version.
func BenchmarkAvailabilityExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := campaign.AvailabilityUnderInjection(hv.Version413(), workload.Config{Ops: 40, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
