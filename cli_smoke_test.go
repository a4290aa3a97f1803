package repro

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// buildCLIs compiles the command-line tools once per test binary.
func buildCLIs(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, tool := range []string{"repro", "tracecheck", "benchdiff"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
		cmd.Env = os.Environ()
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	return dir
}

// TestCLISmoke exercises the shipped binaries end to end: the artifact a
// user actually runs, not just the libraries underneath.
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := buildCLIs(t)
	tests := []struct {
		name string
		tool string
		args []string
		want []string
	}{
		{"table2", "repro", []string{"-table", "2"}, []string{"TABLE II", "Write Page Table Entries"}},
		{"fig3", "repro", []string{"-figure", "3"}, []string{"equivalence", "true"}},
		{"score", "repro", []string{"-score"}, []string{"SECURITY BENCHMARK", "0.18"}},
		{"matrix-parallel", "repro", []string{"-matrix", "-workers", "4"}, []string{"FULL CAMPAIGN MATRIX", "4.13"}},
		{"cell-exploit", "repro", []string{"-cell", "4.8/XSA-182-test/exploit"}, []string{"not vulnerable", "err-state=no", "functionality: Guest-Writable Page Table Entry", "--- hypervisor console (tail) ---"}},
		{"cell-injection", "repro", []string{"-cell", "4.13/XSA-182-test/injection"}, []string{"handled by the system", "erroneous state: "}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(dir, tt.tool), tt.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%s %v: %v\n%s", tt.tool, tt.args, err, out)
			}
			for _, want := range tt.want {
				if !strings.Contains(string(out), want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}

	// The assessment example drives every extension intrusion model
	// through the state injector and prints the health probe's findings.
	t.Run("assessment-example", func(t *testing.T) {
		bin := filepath.Join(dir, "assessment")
		if out, err := exec.Command("go", "build", "-o", bin, "./examples/assessment").CombinedOutput(); err != nil {
			t.Fatalf("building examples/assessment: %v\n%s", err, out)
		}
		out, err := exec.Command(bin).CombinedOutput()
		if err != nil {
			t.Fatalf("examples/assessment: %v\n%s", err, out)
		}
		for _, want := range []string{"unconsumed events", "grant-status-leak", "fatal-exception", "hang-state", "interrupt-flood"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("assessment output missing %q:\n%s", want, out)
			}
		}
	})

	// Out-of-range flag values die with a one-line usage error before
	// any experiment (or profile file) is started.
	t.Run("usage-errors", func(t *testing.T) {
		usage := []struct {
			args []string
			want string
		}{
			{[]string{"-table", "5"}, "-table: want 1..3"},
			{[]string{"-figure", "9"}, "-figure: want 1..4"},
			{[]string{"-fuzz", "-1"}, "-fuzz: want a positive trial count"},
			{[]string{"-workers", "-2", "-matrix"}, "-workers: want 0 (one per CPU) or a positive pool size"},
			{[]string{"-serve", "-matrix"}, "-serve: requires -listen"},
		}
		for _, u := range usage {
			out, err := exec.Command(filepath.Join(dir, "repro"), u.args...).CombinedOutput()
			if err == nil {
				t.Errorf("repro %v exited 0, want a usage error", u.args)
			}
			if !strings.Contains(string(out), u.want) {
				t.Errorf("repro %v output missing %q:\n%s", u.args, u.want, out)
			}
		}
	})

	// A seeded chaos campaign: the process survives injected substrate
	// faults, and -continue-on-error renders their classifications.
	t.Run("chaos", func(t *testing.T) {
		// Chaos runs dump flight-<cell>.jsonl into the working directory;
		// run them in a scratch dir so the dumps land there, then check
		// the dumps themselves.
		scratch := t.TempDir()
		chaosCmd := func(args ...string) *exec.Cmd {
			cmd := exec.Command(filepath.Join(dir, "repro"), args...)
			cmd.Dir = scratch
			return cmd
		}
		out, err := chaosCmd("-matrix", "-chaos", "7", "-continue-on-error", "-workers", "4").CombinedOutput()
		if err != nil {
			t.Fatalf("chaos matrix died: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "cell failed (") {
			t.Errorf("chaos matrix shows no failed-cell classification:\n%s", out)
		}
		// The flight recorder left each failed cell's event ring behind.
		if !strings.Contains(string(out), "flight recorder: dumped flight-") {
			t.Errorf("chaos matrix reports no flight dumps:\n%s", out)
		}
		dumps, err := filepath.Glob(filepath.Join(scratch, "flight-*.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if len(dumps) == 0 {
			t.Error("chaos matrix wrote no flight-*.jsonl dumps")
		}
		for _, dump := range dumps {
			out, err := exec.Command(filepath.Join(dir, "tracecheck"), "diff", dump, dump).CombinedOutput()
			if err != nil {
				t.Errorf("flight dump %s does not parse as a trace: %v\n%s", dump, err, out)
			}
		}
		// Default mode surfaces the first injected fault as an error exit.
		out, err = chaosCmd("-matrix", "-chaos", "7").CombinedOutput()
		if err == nil {
			t.Error("chaos matrix without -continue-on-error exited 0")
		}
		if !strings.Contains(string(out), "injected") {
			t.Errorf("default-mode chaos error does not name the injected fault:\n%s", out)
		}
		out, err = chaosCmd("-json", "-chaos", "7", "-continue-on-error").CombinedOutput()
		if err != nil {
			t.Fatalf("chaos json export died: %v\n%s", err, out)
		}
		for _, want := range []string{`"fault_plan_seed": 7`, `"continue_on_error": true`, `"error"`} {
			if !strings.Contains(string(out), want) {
				t.Errorf("chaos artifact missing %q", want)
			}
		}
	})

	// Profiles flush on error exits: the old code path log.Fatal'd past
	// the deferred pprof stop, leaving empty or missing profile files.
	t.Run("flush-on-error", func(t *testing.T) {
		tmp := t.TempDir()
		cpu := filepath.Join(tmp, "cpu.pprof")
		mem := filepath.Join(tmp, "mem.pprof")
		out, err := exec.Command(filepath.Join(dir, "repro"),
			"-cell", "4.6/no-such-case/injection", "-cpuprofile", cpu, "-memprofile", mem).CombinedOutput()
		if err == nil {
			t.Fatalf("bogus cell exited 0:\n%s", out)
		}
		for _, p := range []string{cpu, mem} {
			st, err := os.Stat(p)
			if err != nil {
				t.Errorf("profile %s not written on error exit: %v", p, err)
				continue
			}
			if st.Size() == 0 {
				t.Errorf("profile %s is empty on error exit", p)
			}
		}
	})

	// SIGINT terminates a campaign promptly instead of wedging it.
	t.Run("interrupt", func(t *testing.T) {
		trace := filepath.Join(t.TempDir(), "trace.jsonl")
		cmd := exec.Command(filepath.Join(dir, "repro"), "-matrix", "-workers", "1", "-trace", trace)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		_ = cmd.Process.Signal(os.Interrupt)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
			// Either outcome is fine — completed before the signal, or
			// interrupted and flushed — as long as it terminated.
		case <-time.After(30 * time.Second):
			_ = cmd.Process.Kill()
			t.Fatal("repro did not terminate after SIGINT")
		}
	})

	// Trace diffing end to end: a trace is identical to itself, and a
	// duplicated effect event is flagged divergent with line evidence
	// and a non-zero exit.
	t.Run("tracecheck-diff", func(t *testing.T) {
		tmp := t.TempDir()
		a := filepath.Join(tmp, "a.jsonl")
		out, err := exec.Command(filepath.Join(dir, "repro"),
			"-cell", "4.6/XSA-182-test/exploit", "-trace", a).CombinedOutput()
		if err != nil {
			t.Fatalf("generating trace: %v\n%s", err, out)
		}
		raw, err := os.ReadFile(a)
		if err != nil {
			t.Fatal(err)
		}
		b := filepath.Join(tmp, "b.jsonl")
		if err := os.WriteFile(b, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		out, err = exec.Command(filepath.Join(dir, "tracecheck"), "diff", a, b).CombinedOutput()
		if err != nil {
			t.Fatalf("identical traces graded non-zero: %v\n%s", err, out)
		}
		for _, want := range []string{"identical", "ok: 1 cells compared"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("diff output missing %q:\n%s", want, out)
			}
		}

		// Duplicate one scenario_step (an effect event) at the end of b:
		// the injected extra effect must diverge the cell.
		var step string
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.Contains(line, `"kind":"scenario_step"`) {
				step = line
				break
			}
		}
		if step == "" {
			t.Fatal("trace has no scenario_step event")
		}
		if err := os.WriteFile(b, append(raw, []byte(step+"\n")...), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err = exec.Command(filepath.Join(dir, "tracecheck"), "diff", a, b).CombinedOutput()
		if err == nil {
			t.Fatalf("perturbed trace graded equivalent:\n%s", out)
		}
		for _, want := range []string{"DIVERGENT", "first divergence at effect index"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("divergent diff output missing %q:\n%s", want, out)
			}
		}
	})

	// A malformed JSONL line fails validation non-zero and names the
	// offending line.
	t.Run("tracecheck-malformed", func(t *testing.T) {
		bad := filepath.Join(t.TempDir(), "bad.jsonl")
		content := `{"cell":"4.6/x/exploit","kind":"scenario_step"}` + "\n{not json\n"
		if err := os.WriteFile(bad, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(filepath.Join(dir, "tracecheck"), bad).CombinedOutput()
		if err == nil {
			t.Fatalf("malformed trace validated clean:\n%s", out)
		}
		if !strings.Contains(string(out), "line 2") {
			t.Errorf("error does not name line 2:\n%s", out)
		}
	})

	// The RQ2 equivalence engine over the live matrix: every cell must
	// grade trace-equivalent.
	t.Run("equivalence", func(t *testing.T) {
		out, err := exec.Command(filepath.Join(dir, "repro"),
			"-equivalence", "-workers", "4").CombinedOutput()
		if err != nil {
			t.Fatalf("repro -equivalence: %v\n%s", err, out)
		}
		for _, want := range []string{"TRACE EQUIVALENCE (RQ2)", "51/51 cells trace-equivalent", "state-audit"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("equivalence output missing %q:\n%s", want, out)
			}
		}
	})

	// -matrix with -equivalence runs the matrix once, and both artifacts
	// read the one run record: the coverage report settles each of the
	// 102 cells exactly once and matches the committed baseline.
	t.Run("matrix-equivalence-coverage", func(t *testing.T) {
		cov := filepath.Join(t.TempDir(), "cov.json")
		out, err := exec.Command(filepath.Join(dir, "repro"),
			"-matrix", "-equivalence", "-workers", "2", "-coverage", cov).CombinedOutput()
		if err != nil {
			t.Fatalf("repro -matrix -equivalence -coverage: %v\n%s", err, out)
		}
		for _, want := range []string{"FULL CAMPAIGN MATRIX", "51/51 cells trace-equivalent"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		}
		checkBaselineCoverage(t, cov)
	})

	// Every experiment of one invocation renders from one matrix run:
	// the default report (Table III, Fig. 4 and the matrix) and the JSON
	// export (runs and scores) each settle the 102 cells once, and a
	// chaos export dumps each failing cell's flight record once. The run
	// record keeps one entry per cell, so a cell run twice would not
	// show in the coverage report; the wall schedule counts every
	// settled run and would.
	t.Run("one-matrix-run", func(t *testing.T) {
		scratch := t.TempDir()
		for _, args := range [][]string{{}, {"-json"}} {
			cov := filepath.Join(scratch, "cov.json")
			sched := filepath.Join(scratch, "sched.json")
			cmd := exec.Command(filepath.Join(dir, "repro"), append(args, "-workers", "2", "-coverage", cov, "-schedule", sched)...)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("repro %v -coverage -schedule: %v\n%s", args, err, out)
			}
			if !strings.Contains(string(out), "cells: 102 settled") {
				t.Errorf("repro %v: schedule summary does not settle 102 cells:\n%s", args, out)
			}
			checkBaselineCoverage(t, cov)
		}
		cmd := exec.Command(filepath.Join(dir, "repro"), "-json", "-chaos", "7", "-continue-on-error", "-workers", "2")
		cmd.Dir = scratch
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("chaos json export died: %v\n%s", err, out)
		}
		dumps, err := filepath.Glob(filepath.Join(scratch, "flight-*.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if len(dumps) == 0 {
			t.Error("chaos json export wrote no flight dumps")
		}
		for _, dump := range dumps {
			if strings.HasSuffix(dump, "-2.jsonl") {
				t.Errorf("cell dumped twice (%s): the export ran it twice", filepath.Base(dump))
			}
		}
	})

	// A -cell run ahead of the matrix is the same cell as the matrix's
	// own: the run record keeps it once, so the coverage report settles
	// the 102 matrix cells and matches the committed baseline.
	t.Run("cell-matrix-coverage", func(t *testing.T) {
		cov := filepath.Join(t.TempDir(), "cov.json")
		out, err := exec.Command(filepath.Join(dir, "repro"),
			"-cell", "4.6/XSA-148-priv/injection", "-matrix", "-workers", "2", "-coverage", cov).CombinedOutput()
		if err != nil {
			t.Fatalf("repro -cell -matrix -coverage: %v\n%s", err, out)
		}
		checkBaselineCoverage(t, cov)
	})

	// -listen wires the observability server into a campaign run and
	// logs the bound address.
	t.Run("listen", func(t *testing.T) {
		out, err := exec.Command(filepath.Join(dir, "repro"),
			"-matrix", "-listen", "127.0.0.1:0", "-workers", "4").CombinedOutput()
		if err != nil {
			t.Fatalf("repro -matrix -listen: %v\n%s", err, out)
		}
		for _, want := range []string{"observability server on http://127.0.0.1:", "FULL CAMPAIGN MATRIX"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("listen output missing %q:\n%s", want, out)
			}
		}
	})

	// Causal spans end to end: a matrix run with -spans renders the span
	// summary (phase totals + critical path) and writes a Chrome
	// trace-event file that tracecheck's spans mode validates.
	t.Run("spans", func(t *testing.T) {
		spans := filepath.Join(t.TempDir(), "spans.json")
		out, err := exec.Command(filepath.Join(dir, "repro"),
			"-matrix", "-workers", "4", "-spans", spans).CombinedOutput()
		if err != nil {
			t.Fatalf("repro -matrix -spans: %v\n%s", err, out)
		}
		for _, want := range []string{
			"FULL CAMPAIGN MATRIX",
			"CAUSAL SPAN SUMMARY (virtual time, events)",
			"critical path: makespan=",
			"wrote span trace to",
		} {
			if !strings.Contains(string(out), want) {
				t.Errorf("spans output missing %q:\n%s", want, out)
			}
		}
		out, err = exec.Command(filepath.Join(dir, "tracecheck"), "spans", spans).CombinedOutput()
		if err != nil {
			t.Fatalf("tracecheck spans: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "ok:") || !strings.Contains(string(out), "102 cells") {
			t.Errorf("tracecheck spans output = %s, want ok across 102 cells", out)
		}
	})

	// benchdiff: equal artifacts pass, a blown threshold names the
	// regression and exits non-zero.
	t.Run("benchdiff", func(t *testing.T) {
		tmp := t.TempDir()
		mk := func(name, nsOld string) string {
			p := filepath.Join(tmp, name)
			content := `{"Action":"output","Output":"BenchmarkFullMatrix-8   \t"}` + "\n" +
				`{"Action":"output","Output":"       5\t` + nsOld + ` ns/op\t1024 B/op\t7 allocs/op\n"}` + "\n"
			if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			return p
		}
		old := mk("old.json", "100000")
		out, err := exec.Command(filepath.Join(dir, "benchdiff"), old, old).CombinedOutput()
		if err != nil {
			t.Fatalf("self-diff failed: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "ok: no benchmark regressed") {
			t.Errorf("self-diff output missing ok line:\n%s", out)
		}
		slow := mk("new.json", "300000")
		out, err = exec.Command(filepath.Join(dir, "benchdiff"), old, slow).CombinedOutput()
		if err == nil {
			t.Fatalf("3x regression passed the default 1.25x threshold:\n%s", out)
		}
		for _, want := range []string{"REGRESSED", "BenchmarkFullMatrix-8", "1 benchmark(s) regressed"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("regression output missing %q:\n%s", want, out)
			}
		}
		// A loose threshold lets the same pair pass.
		if out, err := exec.Command(filepath.Join(dir, "benchdiff"),
			"-threshold", "4.0", old, slow).CombinedOutput(); err != nil {
			t.Errorf("3x growth failed a 4.0x threshold: %v\n%s", err, out)
		}
	})

	// The run ledger end to end: a journaled campaign, a no-op resume, the
	// tracecheck runs surface, and an interrupted run resumed from its
	// journal.
	t.Run("ledger", func(t *testing.T) {
		store := filepath.Join(t.TempDir(), "runs")
		out, err := exec.Command(filepath.Join(dir, "repro"),
			"-matrix", "-workers", "4", "-ledger", store).CombinedOutput()
		if err != nil {
			t.Fatalf("repro -ledger: %v\n%s", err, out)
		}
		for _, want := range []string{"FULL CAMPAIGN MATRIX", "settled 102/102 cells (record digest "} {
			if !strings.Contains(string(out), want) {
				t.Errorf("ledger output missing %q:\n%s", want, out)
			}
		}

		// A same-config resume finds everything recorded and reruns nothing.
		out, err = exec.Command(filepath.Join(dir, "repro"),
			"-matrix", "-ledger", store, "-resume").CombinedOutput()
		if err != nil {
			t.Fatalf("repro -resume: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "102 cells reused, 0 to execute") {
			t.Errorf("no-op resume output:\n%s", out)
		}

		// tracecheck runs: list the store, show the record, self-diff clean.
		out, err = exec.Command(filepath.Join(dir, "tracecheck"), "runs", "list", store).CombinedOutput()
		if err != nil {
			t.Fatalf("tracecheck runs list: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "102/102 cells  settled") {
			t.Errorf("runs list output:\n%s", out)
		}
		out, err = exec.Command(filepath.Join(dir, "tracecheck"), "runs", "show", store).CombinedOutput()
		if err != nil {
			t.Fatalf("tracecheck runs show: %v\n%s", err, out)
		}
		for _, want := range []string{"102 settled of 102 expected, 0 failed", "rq2=", "cov="} {
			if !strings.Contains(string(out), want) {
				t.Errorf("runs show output missing %q:\n%s", want, out)
			}
		}
		out, err = exec.Command(filepath.Join(dir, "tracecheck"), "runs", "diff", store, store).CombinedOutput()
		if err != nil {
			t.Fatalf("tracecheck runs diff: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "no differences") {
			t.Errorf("self runs diff:\n%s", out)
		}

		// Flag validation: -resume requires -ledger; live captures refuse.
		out, err = exec.Command(filepath.Join(dir, "repro"), "-resume").CombinedOutput()
		if err == nil || !strings.Contains(string(out), "-resume: requires -ledger") {
			t.Errorf("bare -resume: err=%v output:\n%s", err, out)
		}
		out, err = exec.Command(filepath.Join(dir, "repro"),
			"-ledger", store, "-trace", "x.jsonl").CombinedOutput()
		if err == nil || !strings.Contains(string(out), "cannot merge") {
			t.Errorf("-ledger -trace: err=%v output:\n%s", err, out)
		}

		// SIGINT mid-campaign, then resume: the journal carries the settled
		// cells and the merged record settles the full matrix.
		scratch := filepath.Join(t.TempDir(), "runs")
		cmd := exec.Command(filepath.Join(dir, "repro"),
			"-matrix", "-workers", "1", "-ledger", scratch)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
		_ = cmd.Process.Signal(os.Interrupt)
		_ = cmd.Wait() // either interrupted or already complete; both resume cleanly
		out, err = exec.Command(filepath.Join(dir, "repro"),
			"-matrix", "-workers", "4", "-ledger", scratch, "-resume").CombinedOutput()
		if err != nil {
			t.Fatalf("resume after SIGINT: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "settled 102/102 cells") {
			t.Errorf("resumed run did not settle the full matrix:\n%s", out)
		}
		out, err = exec.Command(filepath.Join(dir, "tracecheck"), "runs", "diff",
			store, scratch).CombinedOutput()
		if err != nil {
			t.Fatalf("cross-store diff after resume: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "no differences") {
			t.Errorf("resumed record differs from the uninterrupted one:\n%s", out)
		}
	})

	// The observability pipeline end to end: one profiled cell, a JSONL
	// trace on disk, the metrics summary, and tracecheck's validation.
	t.Run("trace-and-metrics", func(t *testing.T) {
		trace := filepath.Join(t.TempDir(), "cell.jsonl")
		out, err := exec.Command(filepath.Join(dir, "repro"),
			"-cell", "4.6/XSA-148-priv/injection", "-trace", trace, "-metrics").CombinedOutput()
		if err != nil {
			t.Fatalf("repro -cell -trace -metrics: %v\n%s", err, out)
		}
		for _, want := range []string{"CAMPAIGN TELEMETRY SUMMARY", "hypercall.arbitrary_access", "cell.wall_ns"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("metrics output missing %q:\n%s", want, out)
			}
		}
		out, err = exec.Command(filepath.Join(dir, "tracecheck"), trace).CombinedOutput()
		if err != nil {
			t.Fatalf("tracecheck: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "ok:") {
			t.Errorf("tracecheck output missing ok: %s", out)
		}
	})

	// The wall schedule end to end: -schedule writes a Perfetto-loadable
	// trace plus prints the occupancy summary, tracecheck's sched mode
	// validates it, and -log emits parseable JSON lines with the run ID.
	t.Run("sched-and-log", func(t *testing.T) {
		tmp := t.TempDir()
		sched := filepath.Join(tmp, "sched.json")
		logFile := filepath.Join(tmp, "run.log")
		out, err := exec.Command(filepath.Join(dir, "repro"),
			"-matrix", "-workers", "4", "-schedule", sched, "-log", logFile).CombinedOutput()
		if err != nil {
			t.Fatalf("repro -matrix -schedule -log: %v\n%s", err, out)
		}
		for _, want := range []string{"WALL SCHEDULE SUMMARY", "utilization:", "wall critical path:", "FULL CAMPAIGN MATRIX"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("schedule output missing %q:\n%s", want, out)
			}
		}
		out, err = exec.Command(filepath.Join(dir, "tracecheck"), "sched", sched).CombinedOutput()
		if err != nil {
			t.Fatalf("tracecheck sched: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "ok: 102 cells across 4 worker tracks") {
			t.Errorf("tracecheck sched output missing the ok line:\n%s", out)
		}
		raw, err := os.ReadFile(logFile)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) < 2 {
			t.Fatalf("log file carries %d lines, want at least the start/done pair:\n%s", len(lines), raw)
		}
		sawDone := false
		for i, line := range lines {
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("log line %d is not JSON: %v\n%s", i+1, err, line)
			}
			if id, _ := rec["run_id"].(string); id == "" {
				t.Fatalf("log line %d has no run_id: %s", i+1, line)
			}
			if rec["msg"] == "campaign done" {
				sawDone = true
			}
		}
		if !sawDone {
			t.Errorf("log file never recorded campaign done:\n%s", raw)
		}
	})

	// The live observability surface: -serve keeps the server up after
	// the campaign, /events replays the retained stream over SSE,
	// /schedule reports the worker occupancy, pprof is mounted, and
	// Ctrl-C shuts the whole thing down cleanly.
	t.Run("serve-endpoints", func(t *testing.T) {
		tmp := t.TempDir()
		stderrFile := filepath.Join(tmp, "stderr.txt")
		ef, err := os.Create(stderrFile)
		if err != nil {
			t.Fatal(err)
		}
		defer ef.Close()
		cmd := exec.Command(filepath.Join(dir, "repro"),
			"-matrix", "-workers", "4", "-listen", "127.0.0.1:0", "-serve")
		cmd.Stdout = ef
		cmd.Stderr = ef
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer cmd.Process.Kill()

		// The bound address is logged as soon as the listener is up.
		addrRE := regexp.MustCompile(`observability server on http://(127\.0\.0\.1:\d+)`)
		var base string
		deadline := time.Now().Add(30 * time.Second)
		for base == "" {
			if time.Now().After(deadline) {
				raw, _ := os.ReadFile(stderrFile)
				t.Fatalf("server address never logged:\n%s", raw)
			}
			raw, _ := os.ReadFile(stderrFile)
			if m := addrRE.FindSubmatch(raw); m != nil {
				base = "http://" + string(m[1])
			} else {
				time.Sleep(20 * time.Millisecond)
			}
		}
		// Wait for the campaign itself to finish so the stream is fully
		// retained and the schedule is final; -serve keeps everything up.
		for {
			if time.Now().After(deadline) {
				raw, _ := os.ReadFile(stderrFile)
				t.Fatalf("campaign never reported completion:\n%s", raw)
			}
			raw, _ := os.ReadFile(stderrFile)
			if strings.Contains(string(raw), "still serving") {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}

		// /events with Last-Event-ID: 0 replays the whole retained run.
		func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, "GET", base+"/events", nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Last-Event-ID", "0")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("GET /events: %v", err)
			}
			defer resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
				t.Fatalf("/events Content-Type = %q", ct)
			}
			var starts, finishes int
			sawDone := false
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() && !sawDone {
				line := sc.Text()
				switch {
				case strings.HasPrefix(line, "event: cell_started"):
					starts++
				case strings.HasPrefix(line, "event: cell_finished"):
					finishes++
				case strings.HasPrefix(line, "event: campaign_done"):
					sawDone = true
				}
			}
			if !sawDone {
				t.Fatalf("replay never reached campaign_done (starts %d finishes %d): %v", starts, finishes, sc.Err())
			}
			if starts != 102 || finishes != 102 {
				t.Errorf("replayed %d starts / %d finishes, want 102/102", starts, finishes)
			}
		}()

		// /schedule reports the finished run's occupancy.
		resp, err := http.Get(base + "/schedule")
		if err != nil {
			t.Fatalf("GET /schedule: %v", err)
		}
		var s struct {
			Total     int `json:"total"`
			Completed int `json:"completed"`
			Workers   []struct {
				Cells int `json:"cells"`
			} `json:"workers"`
		}
		err = json.NewDecoder(resp.Body).Decode(&s)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("/schedule decode: %v", err)
		}
		if s.Total != 102 || s.Completed != 102 || len(s.Workers) != 4 {
			t.Errorf("/schedule = total %d completed %d workers %d, want 102/102/4", s.Total, s.Completed, len(s.Workers))
		}

		// pprof and the runtime gauges are mounted.
		resp, err = http.Get(base + "/debug/pprof/")
		if err != nil {
			t.Fatalf("GET /debug/pprof/: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/debug/pprof/ status %d", resp.StatusCode)
		}
		resp, err = http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, want := range []string{"repro_events_published_total", "repro_sched_utilization", "repro_go_goroutines"} {
			if !strings.Contains(string(raw), want) {
				t.Errorf("/metrics missing %q", want)
			}
		}

		// Ctrl-C tears the server down and the process exits cleanly.
		_ = cmd.Process.Signal(os.Interrupt)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				raw, _ := os.ReadFile(stderrFile)
				t.Fatalf("repro -serve exited with %v after SIGINT:\n%s", err, raw)
			}
		case <-time.After(30 * time.Second):
			_ = cmd.Process.Kill()
			t.Fatal("repro -serve did not exit after SIGINT")
		}
	})
}

// checkBaselineCoverage asserts a coverage report settled the 102 matrix
// cells exactly once: a cell run twice would double its edge counts and
// move the digest off the committed COVERAGE_matrix.json.
func checkBaselineCoverage(t *testing.T, cov string) {
	t.Helper()
	var rep, base struct {
		Digest string            `json:"digest"`
		Cells  []json.RawMessage `json:"cells"`
	}
	for path, into := range map[string]any{cov: &rep, "COVERAGE_matrix.json": &base} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, into); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	if len(rep.Cells) != 102 {
		t.Errorf("coverage report has %d cells, want 102", len(rep.Cells))
	}
	if rep.Digest != base.Digest {
		t.Errorf("coverage digest %s, want the committed %s", rep.Digest, base.Digest)
	}
}
