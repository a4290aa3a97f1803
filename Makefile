# Build/verify/benchmark targets for the reproduction.
#
# `race` is mandatory in CI now that the campaign engine runs cells on
# a goroutine worker pool. `bench` tracks the campaign-matrix perf
# trajectory across PRs by emitting BENCH_matrix.json (test2json
# stream of `go test -bench -benchmem` over the anchored
# $(MATRIX_BENCHES) set). `trace-demo` generates a one-cell JSONL trace and asserts it
# is non-empty, parseable and carries the expected event families; it
# then writes the same cell's trace booted fresh (-no-snapshot) and fails
# unless the two cmp equal once wall_ns is stripped, so the forked
# cell's shared boot prefix plus its own events is the fresh boot's
# stream byte for byte.
# `chaos` runs the fault-injection suite under the race detector (the
# chaos tests exercise panic recovery, watchdog abandonment and
# cancellation across worker pools — exactly where races would hide),
# the runner's guard tests three times over so the race between a
# cell's own settle and the watchdog or cancellation abandoning it runs
# several times per CI run, and then drives a seeded full-matrix chaos
# run through the CLI in chaos-matrix/, which keeps its flight dumps. It
# then runs `-json -chaos 7 -continue-on-error` twice, forked in
# chaos-fork/ and booted fresh (-no-snapshot) in chaos-fresh/, and
# fails unless the two JSON outputs cmp equal and the two sets of
# flight dumps match name for name and byte for byte once wall_ns is
# stripped: seeded faults land identically on either boot path. Last it
# runs `-fuzz 100 -availability` forked and fresh and cmps the two:
# the randomized trials and the availability rows take their
# environments the way campaign cells do, so -no-snapshot must not
# change a byte of them either.
# `equivalence` runs the RQ2 trace-equivalence engine over the full
# matrix; any cell whose injection trace diverges from its
# exploit-induced basis fails the build. The MatrixTelemetry rows
# (off/on/server/coverage/stream/spans/ledger) land in BENCH_matrix.json,
# so the -listen and collector overheads are tracked alongside the
# plain matrix; `bench` additionally emits BENCH_snapshot.json
# (BootEnvironment vs SnapshotBuild vs CellFork) so the snapshot/COW
# fork path's per-cell cost is tracked next to the full boot it
# replaces, and BENCH_ledger.json (BenchmarkLedgerIO: journal appends,
# record settle and write, resume load, over the committed baseline's
# entries with no campaign) so the run ledger's persistence cost is
# tracked apart from the cells. `benchdiff` is the CI regression gate: it
# re-runs the tracked benchmarks and fails if any grew past 2x its
# committed baseline in ns/op, B/op or allocs/op.
# `spans` runs the causal-span suite — every opened span closed exactly
# once (including under chaos), the canonical forest digest pinned —
# then drives a full -spans matrix through the CLI, checks the summary
# carries the critical path, and validates the Perfetto trace with
# `tracecheck spans`. It then runs the same matrix booted fresh
# (-no-snapshot) and fails unless the two summaries cmp equal, so every
# forked cell's grafted boot spans shape the forest as a fresh boot's
# do. The traces (spans-demo.json, spans-fresh.json) and summaries are
# left behind for CI to attach on failure.
# `lint-scenarios` is the registry gate: the scenario-registry
# invariants, lookup pins and corpus-distribution goldens — cheap, so it
# runs before the expensive campaign gates and fails fast on a
# malformed registry entry.
# `cover-matrix` is the coverage determinism gate: it runs the full
# 102-cell matrix with -coverage at 4 workers, self-verifies the report,
# and diffs it against the committed COVERAGE_matrix.json baseline —
# any new or lost hypervisor behaviour edge fails the build with the
# edge named and the cell that first witnessed it (cov-diff.txt is left
# behind for CI to attach on failure).
# `ledger-diff` is the run-record regression gate: it journals a fresh
# full matrix into ledger-ci/ and diffs the settled record against the
# committed LEDGER_baseline.json with `tracecheck runs diff` — a
# baseline cell missing from the fresh run, a verdict flip or a lost
# coverage edge fails the build (tier changes, drift and new cells are
# reported but pass). ledger-diff.txt and the ledger-ci/ record
# directory are left behind for CI to attach on failure.
# `ledger-baseline` regenerates LEDGER_baseline.json after an
# intentional behaviour change (review the runs diff first).
# `stream-demo` is the live-observability gate: the event-bus suite
# (slow-consumer drops, Last-Event-ID replay, SSE shutdown drain) runs
# under the race detector, then a full matrix writes the wall schedule
# (sched-demo.json, Perfetto-loadable) and its occupancy summary, which
# `tracecheck sched` re-validates lane by lane. Both artifacts are left
# behind for CI to attach on failure.
# `pool-hygiene` runs the packages that keep pooled or shared state (the
# machine fork's kept frame buffers, the kernels' shared file maps, the
# hypervisor's package-level hypercall and trap tables every build and
# fork dispatches through, the injector registered into them, the
# campaign's pool of reset environments) twice in one process with
# -count=2, so a test that leaks pool, table or snapshot-cache state
# into a second run of itself fails CI.
# `fuzz` runs every Fuzz* target in the module for 10 s each (today
# FuzzNormalizeText, which holds the trace canonicalizer's hex-masking
# scanners to the regexp passes they replace; FuzzLedgerJSON, which
# holds the run ledger's JSON appenders to encoding/json;
# FuzzReadTrace, which holds the JSONL trace parser to never panic and
# to round-trip what it accepts; and FuzzCoverageReport, which holds
# the coverage report's JSON decode and Verify to never panic and to
# round-trip what verifies). A failing input is left under the
# package's testdata/fuzz/ for `go test` to replay. Minimizing an input
# is capped at 1 s: the default 60 s spent on each new 100 KB coverage
# report would use up a target's whole 10 s budget.

GO ?= go

# Anchored benchmark patterns, shared by `bench` and `benchdiff` so the
# artifacts and the regression gate always track the same set. The old
# bare `-bench Matrix` substring silently swept in every benchmark with
# "Matrix" anywhere in its name — any future BenchmarkFooMatrix would
# have joined the committed baseline unreviewed.
MATRIX_BENCHES   = ^BenchmarkFullMatrix$$|^BenchmarkMatrixParallel$$|^BenchmarkMatrixTelemetry$$
SNAPSHOT_BENCHES = ^BenchmarkBootEnvironment$$|^BenchmarkSnapshotBuild$$|^BenchmarkCellFork$$
LEDGER_BENCHES   = ^BenchmarkLedgerIO$$

.PHONY: all build test race vet pool-hygiene fuzz bench benchdiff bench-check check trace-demo chaos equivalence spans lint-scenarios cover-matrix ledger-diff ledger-baseline stream-demo clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

pool-hygiene:
	$(GO) test -count=2 ./internal/mm ./internal/guest ./internal/hv ./internal/inject ./internal/campaign

fuzz:
	@for file in $$(grep -rl --include='*_test.go' '^func Fuzz' cmd internal); do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$file); do \
			echo "fuzz $$target in ./$$(dirname $$file)"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s -fuzzminimizetime 1s ./$$(dirname $$file) || exit 1; \
		done; \
	done

bench:
	$(GO) test -run '^$$' -bench '$(MATRIX_BENCHES)' -benchmem -json . > BENCH_matrix.json
	@grep -o '"Output":"[^"]*ns/op[^"]*' BENCH_matrix.json | sed 's/"Output":"//;s/\\t/  /g;s/\\n//'
	@echo "wrote BENCH_matrix.json"
	$(GO) test -run '^$$' -bench '$(SNAPSHOT_BENCHES)' -benchmem -json . > BENCH_snapshot.json
	@grep -o '"Output":"[^"]*ns/op[^"]*' BENCH_snapshot.json | sed 's/"Output":"//;s/\\t/  /g;s/\\n//'
	@echo "wrote BENCH_snapshot.json"
	$(GO) test -run '^$$' -bench '$(LEDGER_BENCHES)' -benchmem -json . > BENCH_ledger.json
	@grep -o '"Output":"[^"]*ns/op[^"]*' BENCH_ledger.json | sed 's/"Output":"//;s/\\t/  /g;s/\\n//'
	@echo "wrote BENCH_ledger.json"

# The regression gate: re-run the tracked benchmarks and compare them
# against the committed baselines, in time, bytes and allocations. The thresholds
# are deliberately coarse (2x) — the gate exists to catch structural
# regressions (e.g. losing the snapshot fork path puts FullMatrix ~9x
# over its baseline, and an eagerly allocated 1 MiB event ring puts the
# MatrixTelemetry rows ~19x over in B/op), not scheduler noise between
# runner machines.
benchdiff:
	$(GO) test -run '^$$' -bench '$(MATRIX_BENCHES)' -benchmem -json . > BENCH_matrix.new.json
	$(GO) run ./cmd/benchdiff -threshold 2.0 BENCH_matrix.json BENCH_matrix.new.json
	$(GO) test -run '^$$' -bench '$(SNAPSHOT_BENCHES)' -benchmem -json . > BENCH_snapshot.new.json
	$(GO) run ./cmd/benchdiff -threshold 2.0 BENCH_snapshot.json BENCH_snapshot.new.json
	$(GO) test -run '^$$' -bench '$(LEDGER_BENCHES)' -benchmem -json . > BENCH_ledger.new.json
	$(GO) run ./cmd/benchdiff -threshold 2.0 BENCH_ledger.json BENCH_ledger.new.json
	@rm -f BENCH_matrix.new.json BENCH_snapshot.new.json BENCH_ledger.new.json

trace-demo:
	$(GO) run ./cmd/repro -cell 4.6/XSA-148-priv/injection -trace trace-demo.jsonl > /dev/null
	$(GO) run ./cmd/tracecheck trace-demo.jsonl
	$(GO) run ./cmd/repro -cell 4.6/XSA-148-priv/injection -no-snapshot -trace trace-demo-fresh.jsonl > /dev/null
	@sed -E 's/"wall_ns":[0-9]+,?//' trace-demo.jsonl > trace-demo-nowall.jsonl
	@sed -E 's/"wall_ns":[0-9]+,?//' trace-demo-fresh.jsonl | cmp trace-demo-nowall.jsonl -

chaos:
	$(GO) test -race ./internal/faults/
	$(GO) test -race -count=3 -run 'Chaos|Panic|Watchdog|Cancel' ./internal/campaign/
	rm -rf chaos-matrix chaos-fork chaos-fresh
	mkdir chaos-matrix chaos-fork chaos-fresh
	cd chaos-matrix && $(GO) run ../cmd/repro -matrix -chaos 7 -continue-on-error -workers 4 > /dev/null
	cd chaos-fork && $(GO) run ../cmd/repro -json -chaos 7 -continue-on-error > out.json
	cd chaos-fresh && $(GO) run ../cmd/repro -json -chaos 7 -continue-on-error -no-snapshot > out.json
	cmp chaos-fork/out.json chaos-fresh/out.json
	sed -i -E 's/"wall_ns":[0-9]+,?//' chaos-fork/flight-*.jsonl chaos-fresh/flight-*.jsonl
	diff -r chaos-fork chaos-fresh
	$(GO) run ./cmd/repro -fuzz 100 -availability > chaos-fork/trials.txt
	$(GO) run ./cmd/repro -fuzz 100 -availability -no-snapshot > chaos-fresh/trials.txt
	cmp chaos-fork/trials.txt chaos-fresh/trials.txt

equivalence:
	$(GO) run ./cmd/repro -equivalence -workers 4

spans:
	$(GO) test ./internal/span/
	$(GO) test -run 'Span' ./internal/campaign/ ./internal/obs/ ./internal/report/
	$(GO) run ./cmd/repro -matrix -workers 4 -spans spans-demo.json > spans-summary.txt
	@grep -q 'CAUSAL SPAN SUMMARY' spans-summary.txt
	@grep -q 'critical path: makespan=' spans-summary.txt
	$(GO) run ./cmd/tracecheck spans spans-demo.json
	$(GO) run ./cmd/repro -matrix -workers 4 -spans spans-fresh.json -no-snapshot > spans-fresh-summary.txt
	cmp spans-summary.txt spans-fresh-summary.txt

lint-scenarios:
	$(GO) test -run 'Registry|SpecNames|ScenarioLookup|ScenariosMatch|Seed' ./internal/exploits/ ./internal/campaign/
	$(GO) test -run 'Corpus' ./internal/fieldstudy/ ./internal/report/

# The coverage gate deliberately preserves tracecheck's exit code while
# still echoing the diff into cov-diff.txt for the CI artifact upload.
cover-matrix:
	$(GO) run ./cmd/repro -matrix -workers 4 -coverage cov-matrix.json > /dev/null
	$(GO) run ./cmd/tracecheck cov cov-matrix.json
	@$(GO) run ./cmd/tracecheck cov COVERAGE_matrix.json cov-matrix.json > cov-diff.txt 2>&1; rc=$$?; cat cov-diff.txt; exit $$rc

# The ledger gate mirrors cover-matrix's artifact discipline: the diff
# output lands in ledger-diff.txt and the fresh run's record directory
# stays in ledger-ci/ for the CI upload, while tracecheck's exit code
# is preserved.
ledger-diff:
	rm -rf ledger-ci
	$(GO) run ./cmd/repro -matrix -workers 4 -ledger ledger-ci > /dev/null
	@$(GO) run ./cmd/tracecheck runs diff LEDGER_baseline.json ledger-ci > ledger-diff.txt 2>&1; rc=$$?; cat ledger-diff.txt; exit $$rc

stream-demo:
	$(GO) test -race ./internal/events/
	$(GO) test -race -run 'Events|Stream|Sched' ./internal/obs/ ./internal/campaign/
	$(GO) run ./cmd/repro -matrix -workers 4 -schedule sched-demo.json > sched-summary.txt
	@grep -q 'WALL SCHEDULE SUMMARY' sched-summary.txt
	@grep -q 'utilization:' sched-summary.txt
	@grep -q 'wall critical path:' sched-summary.txt
	$(GO) run ./cmd/tracecheck sched sched-demo.json

ledger-baseline:
	rm -rf ledger-ci
	$(GO) run ./cmd/repro -matrix -workers 4 -ledger ledger-ci > /dev/null
	cp ledger-ci/*/record.json LEDGER_baseline.json
	@echo "wrote LEDGER_baseline.json"

# bench/ is a nested module, so the root ./... patterns never compile
# it; bench-check vets and tests it against the current tree's API.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# check runs every gate CI runs except benchdiff: that 2x gate compares
# wall time and bytes against baselines pinned on another host, so CI
# runs it as its own step.
check: build vet lint-scenarios test race pool-hygiene fuzz trace-demo chaos equivalence spans stream-demo cover-matrix ledger-diff bench-check

# BENCH_matrix.json, BENCH_snapshot.json and BENCH_ledger.json are
# committed baselines (benchdiff reads them), so clean removes only what
# targets generate.
clean:
	rm -f BENCH_*.new.json trace-demo*.jsonl flight-*.jsonl spans-demo.json spans-summary.txt
	rm -f spans-fresh.json spans-fresh-summary.txt
	rm -f cov-matrix.json cov-diff.txt ledger-diff.txt
	rm -f sched-demo.json sched-summary.txt
	rm -rf ledger-ci chaos-matrix chaos-fork chaos-fresh
	$(GO) clean ./...
