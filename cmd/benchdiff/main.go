// Command benchdiff compares two benchmark artifacts produced by
// `make bench` (test2json streams of `go test -bench`, e.g.
// BENCH_matrix.json) benchmark by benchmark and reports the ns/op, B/op
// and allocs/op deltas, so a perf regression shows up as a reviewable
// number instead of a hunch. A benchmark whose ns/op, B/op or allocs/op
// grew beyond the threshold ratio fails the comparison with a non-zero
// exit; B/op and allocs/op are each gated only where both sides
// recorded a nonzero count (`-benchmem`).
//
// Usage:
//
//	benchdiff old.json new.json
//	benchdiff -threshold 1.10 old.json new.json   # fail on >10% growth
//
// Benchmarks present on only one side are reported as added/removed
// but never fail the comparison — the set changes legitimately as the
// suite grows. Rows pair up by name without the -N GOMAXPROCS suffix,
// so a baseline recorded on a host with another CPU count still gates;
// the report shows each name as recorded.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// testEvent is the subset of the test2json stream benchdiff reads.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// result is one benchmark's parsed measurements.
type result struct {
	// Name is the benchmark's name as recorded, GOMAXPROCS suffix
	// included.
	Name        string
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
}

// benchLine matches a complete benchmark result line in the
// reassembled output stream. Names carry the -N GOMAXPROCS suffix and
// sub-benchmark paths; measurements beyond ns/op are optional.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

// parse reads a test2json stream and extracts benchmark results. The
// test binary's output is split across Output events at arbitrary
// points (a benchmark's name and its measurements often arrive in
// separate events), so the events are concatenated before line
// parsing. A benchmark that ran more than once keeps its last run.
func parse(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var out strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1024*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("%s: line %d: not a test2json event: %w", path, line, err)
		}
		if ev.Action == "output" {
			out.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}

	results := make(map[string]result)
	for _, l := range strings.Split(out.String(), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(l))
		if m == nil {
			continue
		}
		r := result{Name: m[1]}
		r.NsPerOp, _ = strconv.ParseFloat(m[2], 64)
		if m[3] != "" {
			r.BytesPerOp, _ = strconv.ParseFloat(m[3], 64)
		}
		if m[4] != "" {
			r.AllocsPerOp, _ = strconv.ParseFloat(m[4], 64)
		}
		results[m[1]] = r
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	return trimProcs(results), nil
}

// procSuffix matches the -N that go test appends to every benchmark
// name when GOMAXPROCS is N > 1.
var procSuffix = regexp.MustCompile(`-\d+$`)

// trimProcs keys the results by name without the GOMAXPROCS suffix
// when every name carries the same one. A one-CPU run appends no
// suffix; its names that end in a number of their own (workers-4)
// differ in it or sit beside names that end in none, so nothing is
// trimmed there.
func trimProcs(results map[string]result) map[string]result {
	suffix := ""
	for name := range results {
		m := procSuffix.FindString(name)
		if m == "" || (suffix != "" && m != suffix) {
			return results
		}
		suffix = m
	}
	out := make(map[string]result, len(results))
	for name, r := range results {
		out[strings.TrimSuffix(name, suffix)] = r
	}
	return out
}

// regressions names the measurements of one benchmark whose new/old
// ratio exceeds threshold: "ns/op", "B/op" when both runs recorded a
// nonzero byte count, and "allocs/op" when both recorded a nonzero
// allocation count.
func regressions(o, n result, threshold float64) []string {
	var out []string
	if n.NsPerOp/o.NsPerOp > threshold {
		out = append(out, "ns/op")
	}
	if grew(o.BytesPerOp, n.BytesPerOp, threshold) {
		out = append(out, "B/op")
	}
	if grew(o.AllocsPerOp, n.AllocsPerOp, threshold) {
		out = append(out, "allocs/op")
	}
	return out
}

// grew reports whether a -benchmem count recorded on both sides grew
// past threshold; a side that recorded none gives no ratio.
func grew(o, n, threshold float64) bool {
	return o > 0 && n > 0 && n/o > threshold
}

// pct renders the new/old change of one measurement, "-" when the old
// side has nothing to compare against.
func pct(o, n float64) string {
	if o <= 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", (n/o-1)*100)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	threshold := flag.Float64("threshold", 1.25, "fail when any benchmark's new/old ns/op, B/op or allocs/op ratio exceeds this")
	flag.Parse()
	if flag.NArg() != 2 {
		log.Fatalf("usage: benchdiff [-threshold 1.25] old.json new.json")
	}
	if *threshold <= 0 {
		log.Fatalf("-threshold: want a positive ratio, got %g", *threshold)
	}
	oldPath, newPath := flag.Arg(0), flag.Arg(1)
	oldR, err := parse(oldPath)
	if err != nil {
		log.Fatal(err)
	}
	newR, err := parse(newPath)
	if err != nil {
		log.Fatal(err)
	}

	names := make([]string, 0, len(oldR)+len(newR))
	seen := make(map[string]bool)
	for n := range oldR {
		names = append(names, n)
		seen[n] = true
	}
	for n := range newR {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	fmt.Printf("%-52s %14s %14s %8s %14s %14s %8s %12s %12s %8s\n", "Benchmark", "old ns/op", "new ns/op", "delta", "old B/op", "new B/op", "delta", "old allocs", "new allocs", "delta")
	fmt.Println(strings.Repeat("-", 165))
	regressed := 0
	for _, n := range names {
		o, inOld := oldR[n]
		nw, inNew := newR[n]
		switch {
		case !inOld:
			fmt.Printf("%-52s %14s %14.0f %8s %14s %14.0f %8s %12s %12.0f %8s\n", nw.Name, "-", nw.NsPerOp, "added", "-", nw.BytesPerOp, "added", "-", nw.AllocsPerOp, "added")
		case !inNew:
			fmt.Printf("%-52s %14.0f %14s %8s %14.0f %14s %8s %12.0f %12s %8s\n", o.Name, o.NsPerOp, "-", "removed", o.BytesPerOp, "-", "removed", o.AllocsPerOp, "-", "removed")
		default:
			mark := ""
			if r := regressions(o, nw, *threshold); len(r) > 0 {
				mark = " REGRESSED " + strings.Join(r, ",")
				regressed++
			}
			fmt.Printf("%-52s %14.0f %14.0f %8s %14.0f %14.0f %8s %12.0f %12.0f %8s%s\n", nw.Name, o.NsPerOp, nw.NsPerOp, pct(o.NsPerOp, nw.NsPerOp), o.BytesPerOp, nw.BytesPerOp, pct(o.BytesPerOp, nw.BytesPerOp), o.AllocsPerOp, nw.AllocsPerOp, pct(o.AllocsPerOp, nw.AllocsPerOp), mark)
		}
	}
	if regressed > 0 {
		log.Fatalf("%d benchmark(s) regressed beyond %.2fx (%s -> %s)", regressed, *threshold, oldPath, newPath)
	}
	fmt.Printf("ok: no benchmark regressed beyond %.2fx\n", *threshold)
}
