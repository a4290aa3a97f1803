package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/ledger"
)

// Runs mode works with campaign run records produced by `repro
// -ledger`.
//
//	tracecheck runs list <store-dir>      — run history, newest first
//	tracecheck runs show <ref>            — one settled canonical record
//	tracecheck runs diff <a> <b>          — regression diff, canonical text
//
// A <ref> is a record.json path (a run directory's settled record or a
// committed baseline), a run directory, or a store directory (its
// latest run). Diff exits non-zero when the diff is fatal — a verdict
// flip or a lost coverage edge — which is the `make ledger-diff` gate.

func runsMain(args []string) {
	switch {
	case len(args) == 2 && args[0] == "list":
		runsList(args[1])
	case len(args) == 2 && args[0] == "show":
		runsShow(args[1])
	case len(args) == 3 && args[0] == "diff":
		runsDiff(args[1], args[2])
	default:
		log.Fatalf("usage: tracecheck runs list <store-dir> | tracecheck runs show <record.json|run-dir|store-dir> | tracecheck runs diff <a> <b>")
	}
}

func runsList(dir string) {
	store, err := ledger.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	runs, err := store.Runs()
	if err != nil {
		log.Fatal(err)
	}
	if len(runs) == 0 {
		fmt.Println("no recorded runs")
		return
	}
	for _, r := range runs {
		status := "interrupted"
		if r.Digest != "" {
			status = "settled"
		}
		fmt.Printf("%s  %s  %3d/%3d cells  %s  %s\n",
			r.RunID,
			time.Unix(0, r.CreatedUnixNS).UTC().Format("2006-01-02 15:04:05"),
			r.Completed, r.Cells, status, r.Config.Canonical())
	}
}

// loadRef resolves a record reference: a record.json file, a run
// directory containing one, or a store directory (latest run,
// rebuilt from its journal).
func loadRef(ref string) *ledger.Record {
	fi, err := os.Stat(ref)
	if err != nil {
		log.Fatal(err)
	}
	if !fi.IsDir() {
		rec, err := ledger.LoadRecordFile(ref)
		if err != nil {
			log.Fatal(err)
		}
		return rec
	}
	// A run directory holds run.json directly; a store directory holds
	// run subdirectories.
	if _, err := os.Stat(ref + "/run.json"); err == nil {
		rec, err := ledger.LoadRecordFile(ref + "/record.json")
		if err == nil {
			return rec
		}
		// No settled record yet — rebuild from the journal via the store.
		store, oerr := ledger.Open(ref + "/..")
		if oerr != nil {
			log.Fatal(err)
		}
		rec2, lerr := store.Load(fi.Name())
		if lerr != nil {
			log.Fatal(err)
		}
		return rec2
	}
	store, err := ledger.Open(ref)
	if err != nil {
		log.Fatal(err)
	}
	runs, err := store.Runs()
	if err != nil {
		log.Fatal(err)
	}
	if len(runs) == 0 {
		log.Fatalf("%s: no recorded runs", ref)
	}
	rec, err := store.Load(runs[0].RunID)
	if err != nil {
		log.Fatal(err)
	}
	return rec
}

func runsShow(ref string) {
	rec := loadRef(ref)
	fmt.Printf("run %s\n", rec.RunID)
	fmt.Printf("  config:    %s\n", rec.Config.Canonical())
	fmt.Printf("  cells:     %d settled of %d expected, %d failed\n", rec.Completed, rec.Cells, rec.Failed())
	fmt.Printf("  digest:    %s\n", rec.Digest)
	for _, e := range rec.Entries {
		line := fmt.Sprintf("  %s/%s/%s", e.Version, e.Scenario, e.Mode)
		switch {
		case e.Error != nil:
			line += fmt.Sprintf("  FAILED(%s) %s", e.Error.Class, e.Error.Message)
		case e.Verdict != nil:
			mark := func(v bool) string {
				if v {
					return "✓"
				}
				return "-"
			}
			line += fmt.Sprintf("  err-state=%s sec-viol=%s", mark(e.Verdict.ErroneousState), mark(e.Verdict.SecurityViolation))
			if e.Verdict.Handled {
				line += " handled"
			}
		}
		if e.Equivalence != nil {
			line += fmt.Sprintf("  rq2=%s", e.Equivalence.Tier)
		}
		if e.Coverage != nil {
			line += fmt.Sprintf("  cov=%d:%s", e.Coverage.Edges, e.Coverage.Digest)
		}
		fmt.Println(line)
	}
}

func runsDiff(a, b string) {
	d := ledger.Diff(loadRef(a), loadRef(b))
	fmt.Print(d.Render())
	if d.Fatal() {
		log.Fatalf("FATAL: %d baseline cell(s) missing, %d verdict flip(s), %d lost coverage edge(s)", len(d.OnlyA), len(d.Flips), len(d.LostEdges))
	}
}
