package campaign_test

// The chaos suite: the campaign engine runs the full matrix while the
// faults plane misbehaves underneath it — forced allocation failures,
// hypercall-handler panics, forced hangs, wedged cells — and the
// process must never die, every faulted cell must land as a classified
// per-cell record, the artifact must be byte-identical at any worker
// count for the same fault-plan seed, and cancellation must not leak
// goroutines.

import (
	"bytes"
	"context"
	"errors"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/exploits"
	"repro/internal/faults"
	"repro/internal/hv"
	"repro/internal/telemetry"
)

// awaitGoroutineBaseline waits for the goroutine count to drop back to
// (or below) base, failing the test if abandoned cell goroutines are
// still alive after the grace period.
func awaitGoroutineBaseline(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finished goroutines off the scheduler
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestChaosMatrixEveryCellClassified(t *testing.T) {
	validClasses := map[campaign.FailureClass]bool{
		campaign.FailError: true, campaign.FailPanic: true,
		campaign.FailHang: true, campaign.FailCanceled: true,
	}
	faulted := 0
	for _, seed := range []int64{1, 7, 99} {
		plan := faults.NewPlan(seed, faults.DefaultDensity)
		r := &campaign.Runner{Workers: 8, ContinueOnError: true, Faults: plan}
		entries, err := r.RunMatrixContext(context.Background())
		plan.ReleaseAll()
		if err != nil {
			t.Fatalf("seed %d: matrix failed as a whole under ContinueOnError: %v", seed, err)
		}
		if len(entries) != 102 {
			t.Fatalf("seed %d: %d entries, want 102", seed, len(entries))
		}
		for _, e := range entries {
			switch {
			case e.Result != nil && e.Err != nil:
				t.Errorf("seed %d: cell %s/%s/%s has both a result and an error", seed, e.Version, e.UseCase, e.Mode)
			case e.Result == nil && e.Err == nil:
				t.Errorf("seed %d: cell %s/%s/%s has neither a result nor an error", seed, e.Version, e.UseCase, e.Mode)
			case e.Err != nil:
				faulted++
				if !validClasses[e.Err.Class] {
					t.Errorf("seed %d: cell %s classified as unknown class %q", seed, e.Err.Cell, e.Err.Class)
				}
				if e.Err.Message == "" {
					t.Errorf("seed %d: cell %s has an empty failure message", seed, e.Err.Cell)
				}
			}
		}
	}
	if faulted == 0 {
		t.Error("no cell failed across three seeded chaos runs; the fault plane is not biting")
	}
}

// chaosCells is a CellObserver that keeps every settled cell's result,
// failure record and profile (a failed cell's salvage profile) by cell.
type chaosCells struct {
	mu    sync.Mutex
	cells map[string]chaosCell
}

type chaosCell struct {
	res     *campaign.RunResult
	cerr    *campaign.CellError
	profile *telemetry.CellProfile
}

func (o *chaosCells) CellSettled(ref campaign.CellRef, res *campaign.RunResult, cerr *campaign.CellError, profile *telemetry.CellProfile, _ *coverage.Map, _ uint64, _ time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cells[ref.Version+"/"+ref.UseCase+"/"+string(ref.Mode)] = chaosCell{res, cerr, profile}
}

func observeMatrix(t *testing.T, plan *faults.Plan) map[string]chaosCell {
	t.Helper()
	o := &chaosCells{cells: make(map[string]chaosCell)}
	r := &campaign.Runner{Workers: 4, ContinueOnError: true, Faults: plan, Observer: o}
	_, err := r.RunMatrixContext(context.Background())
	plan.ReleaseAll()
	if err != nil {
		t.Fatal(err)
	}
	return o.cells
}

// sameEvent compares two events on everything but Seq.
func sameEvent(a, b telemetry.Event) bool {
	a.Seq, b.Seq = 0, 0
	return a == b
}

// TestSeededChaosFaultsTheScenario: seeded rules count their triggers
// from the fork point, so over four seeds of the full matrix no cell
// fails in its boot, every seeded site fires in some cell's scenario,
// and some seeded sink-write fault drops one of a cell's own events
// rather than a boot page-type event. The dropped event is read off
// the first place the faulted stream skips one event of the cell's
// unfaulted stream.
func TestSeededChaosFaultsTheScenario(t *testing.T) {
	clean := observeMatrix(t, nil)
	fired := make(map[faults.Site]int)
	sinkDrops, ownDrops := 0, 0
	for _, seed := range []int64{1, 7, 11, 99} {
		for id, c := range observeMatrix(t, faults.NewPlan(seed, faults.DefaultDensity)) {
			if c.cerr != nil {
				// The hypervisor's boot and the domain builds after it.
				if strings.HasPrefix(c.cerr.Message, "hv: boot failed") || strings.HasPrefix(c.cerr.Message, "campaign: creating ") {
					t.Errorf("seed %d: %s failed in its boot: %s", seed, id, c.cerr.Message)
				}
				if c.cerr.Class == campaign.FailPanic && strings.Contains(c.cerr.Message, "faults: injected panic") {
					fired[faults.SiteHypercallPanic]++
				}
			}
			if c.res != nil {
				if c.res.Outcome.Err != nil && strings.Contains(c.res.Outcome.Err.Error(), "forced allocation failure") ||
					strings.Contains(strings.Join(c.res.Outcome.Log, "\n"), "forced allocation failure") {
					fired[faults.SiteAlloc]++
				}
				if strings.Contains(strings.Join(c.res.Console, "\n"), "faults: injected hang state") {
					fired[faults.SiteHang]++
				}
			}
			if c.profile == nil {
				continue
			}
			for _, v := range c.profile.Counters {
				if v.Name == "telemetry.sink_errors" && v.Value > 0 {
					fired[faults.SiteSinkWrite]++
				}
			}
			got, want := stream(c.profile), stream(clean[id].profile)
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			if i+1 < len(want) && i < len(got) && sameEvent(got[i], want[i+1]) && got[i].Seq == want[i].Seq {
				sinkDrops++
				if k := want[i].Kind; k != telemetry.KindPageTypeGet && k != telemetry.KindPageTypePut {
					ownDrops++
				}
			}
		}
	}
	for _, site := range []faults.Site{faults.SiteAlloc, faults.SiteHypercallPanic, faults.SiteHang, faults.SiteSinkWrite} {
		if fired[site] == 0 {
			t.Errorf("no seeded %s rule fired in any cell across seeds 1/7/11/99", site)
		}
	}
	if ownDrops == 0 {
		t.Errorf("none of %d seeded sink-write drops hit a non-page-type event; the faults land in the boot", sinkDrops)
	}
	t.Logf("fired per site: %v; sink drops %d, of non-page-type events %d", fired, sinkDrops, ownDrops)
}

func TestChaosArtifactDeterministicAcrossWorkerCounts(t *testing.T) {
	const seed = 7
	export := func(workers int) []byte {
		t.Helper()
		plan := faults.NewPlan(seed, faults.DefaultDensity)
		r := &campaign.Runner{Workers: workers, ContinueOnError: true, Faults: plan}
		out := exportMatrix(t, r, exploits.Specs())
		plan.ReleaseAll()
		return out
	}
	ref := export(1)
	if !bytes.Contains(ref, []byte(`"fault_plan_seed": 7`)) {
		t.Error("artifact does not carry the fault-plan seed")
	}
	if !bytes.Contains(ref, []byte(`"error"`)) {
		t.Error("seed 7 artifact carries no per-cell error record; the plan is not biting")
	}
	for _, w := range []int{4, 8} {
		if got := export(w); !bytes.Equal(ref, got) {
			t.Errorf("workers=%d artifact differs from serial artifact under the same fault-plan seed", w)
		}
	}
}

func TestPanicIsolationGoldenErrorRecord(t *testing.T) {
	const target = "4.6/XSA-182-test/exploit"
	record := func() *campaign.CellError {
		t.Helper()
		plan := faults.NewPlan(0, 0).ArmCell(target, faults.SiteHypercallPanic, 1)
		r := &campaign.Runner{Workers: 4, ContinueOnError: true, Faults: plan}
		entries, err := r.RunMatrixContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var got *campaign.CellError
		for _, e := range entries {
			id := e.Version + "/" + e.UseCase + "/" + string(e.Mode)
			if id == target {
				if e.Err == nil {
					t.Fatalf("target cell %s did not fail", target)
				}
				got = e.Err
			} else if e.Err != nil {
				t.Errorf("panic leaked into cell %s: %v", e.Err.Cell, e.Err)
			}
		}
		return got
	}
	ce := record()
	if ce.Class != campaign.FailPanic {
		t.Errorf("class = %q, want %q", ce.Class, campaign.FailPanic)
	}
	if ce.Cell != target {
		t.Errorf("cell = %q, want %q", ce.Cell, target)
	}
	if !strings.Contains(ce.Message, "injected panic in hypercall") {
		t.Errorf("message = %q", ce.Message)
	}
	if ce.Stack == "" {
		t.Error("panic record carries no stack")
	}
	if regexp.MustCompile(`goroutine \d`).MatchString(ce.Stack) {
		t.Error("stack carries a raw goroutine number")
	}
	if i := strings.Index(ce.Stack, "0x"); i >= 0 && !strings.HasPrefix(ce.Stack[i:], "0x?") {
		t.Errorf("stack carries an unnormalized hex literal near %q", ce.Stack[i:min(i+20, len(ce.Stack))])
	}
	// The record is golden: a second run reproduces it byte for byte.
	again := record()
	if again.Message != ce.Message || again.Stack != ce.Stack {
		t.Error("panic record is not deterministic across runs")
	}
}

func TestWatchdogClassifiesWedgedCellAsHang(t *testing.T) {
	base := runtime.NumGoroutine()
	const target = "4.6/XSA-182-test/exploit"
	plan := faults.NewPlan(0, 0).ArmCell(target, faults.SiteWedge, 1)
	r := &campaign.Runner{Workers: 1, CellTimeout: 50 * time.Millisecond, Faults: plan}
	_, err := r.RunContext(context.Background(), hv.Version46(), "XSA-182-test", campaign.ModeExploit)
	var ce *campaign.CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a *CellError", err)
	}
	if ce.Class != campaign.FailHang {
		t.Errorf("class = %q, want %q", ce.Class, campaign.FailHang)
	}
	if !strings.Contains(ce.Message, "watchdog") {
		t.Errorf("message = %q", ce.Message)
	}
	// Releasing the plan unparks the abandoned cell so it drains.
	plan.ReleaseAll()
	awaitGoroutineBaseline(t, base)
}

func TestCancellationMarksRemainingCellsAndLeaksNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first cell dispatches
	r := &campaign.Runner{Workers: 4, ContinueOnError: true}
	entries, err := r.RunMatrixContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Err == nil || e.Err.Class != campaign.FailCanceled {
			t.Fatalf("cell %s/%s/%s not classified canceled: %+v", e.Version, e.UseCase, e.Mode, e.Err)
		}
	}
	// Default mode surfaces the first canceled cell as the error.
	if _, err := (&campaign.Runner{Workers: 4}).RunMatrixContext(ctx); err == nil {
		t.Error("default mode returned no error for a cancelled matrix")
	} else if !errors.Is(err, context.Canceled) {
		t.Errorf("default-mode error %v does not unwrap to context.Canceled", err)
	}
	awaitGoroutineBaseline(t, base)
}

// cancelOnDispatch is a SchedObserver that cancels the run when a
// worker picks up the named cell.
type cancelOnDispatch struct {
	cell   string
	cancel context.CancelFunc
}

func (c cancelOnDispatch) BatchQueued([]string) {}

func (c cancelOnDispatch) CellDispatched(cell string, _ int, _ int64) {
	if cell == c.cell {
		c.cancel()
	}
}

func (c cancelOnDispatch) CellSettled(string, int, int64, int64, *telemetry.CellProfile, *campaign.CellError) {
}

func TestCancellationMidRunSalvagesCompletedProfiles(t *testing.T) {
	base := runtime.NumGoroutine()
	const wedged = "4.6/XSA-148-priv/exploit" // fifth cell in matrix order
	plan := faults.NewPlan(0, 0).ArmCell(wedged, faults.SiteWedge, 1)
	reg := telemetry.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	r := &campaign.Runner{
		Workers:         1, // serial: cells before the wedge complete deterministically
		ContinueOnError: true,
		CellTimeout:     -1, // watchdog off; cancellation is what unblocks the run
		Faults:          plan,
		Telemetry:       reg,
		// Cancel as the wedged cell is dispatched: on the serial pool
		// the four cells before it have settled by then, and the wedge
		// holds the cell until the cancellation abandons it.
		Sched: cancelOnDispatch{cell: wedged, cancel: cancel},
	}
	entries, err := r.RunMatrixContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	var completed, canceled int
	for _, e := range entries {
		switch {
		case e.Result != nil:
			completed++
		case e.Err != nil && e.Err.Class == campaign.FailCanceled:
			canceled++
		default:
			t.Errorf("cell %s/%s/%s: unexpected outcome %+v", e.Version, e.UseCase, e.Mode, e.Err)
		}
	}
	if completed != 4 {
		t.Errorf("%d cells completed before the wedge, want 4", completed)
	}
	if canceled != 98 {
		t.Errorf("%d cells canceled, want 98", canceled)
	}
	// The registry retains the completed cells' profiles in completion
	// order — the salvage path the CLI uses to flush -trace after ^C.
	if got := len(reg.CellProfiles()); got < 4 {
		t.Errorf("registry retained %d profiles, want >= 4", got)
	}
	plan.ReleaseAll()
	awaitGoroutineBaseline(t, base)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
