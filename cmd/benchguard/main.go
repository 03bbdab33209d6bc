// benchguard compares two `go test -json` benchmark snapshots (the
// BENCH_N.json files the Makefile's bench target writes) and fails when a
// benchmark regressed beyond a tolerance factor.
//
// It guards the *serial-path* trajectory across PRs: the bench job runs it
// with the previous PR's committed snapshot as -old and the fresh one as
// -new. The ns/op tolerance is deliberately generous — snapshots come from
// different CI machines (different CPUs, frequencies, neighbors), so only
// a gross regression (default 1.5×) is a signal rather than noise.
//
// allocs/op does not depend on the machine, so it is gated tightly: a
// benchmark that reports it fails when its median allocs/op exceeds the
// old median by more than 1% (a Figure 2 run's count varies by under
// 0.01% between runs; a zero-allocation bench must stay at zero).
//
// events/op — the simulation events a campaign bench executes — is a pure
// function of the model, so it is gated exactly: any difference from the
// old median, up or down, fails. A kernel or transport change that claims
// to keep the event stream proves it here.
//
// Usage:
//
//	benchguard -old BENCH_5.json -new BENCH_6.json [-tolerance 1.5] [-match regexp]
//
// Benchmarks present in only one file are reported but never fail the
// guard (new benches appear, old ones retire): the comparison always runs
// over the intersection. An empty intersection — a baseline predating
// every current benchmark — is a warning, not an error: the guard has
// nothing to check yet, and failing would block the very PR that
// introduces the benchmarks.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// testEvent is the subset of the `go test -json` event stream we read.
type testEvent struct {
	Action string
	Output string
}

// readBenchLines reassembles the textual output of a -json stream. Long
// benchmark result lines are split across multiple Output events, so the
// stream is concatenated first and split on newlines after.
func readBenchLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var text strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return strings.Split(text.String(), "\n"), nil
}

// benchLine matches one standard benchmark result line:
//
//	BenchmarkName[-procs] <tab> iters <tab> 123.4 ns/op [more metrics]
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.e+]+) ns/op`)

// allocsField matches the allocs/op metric (-benchmem or b.ReportAllocs)
// anywhere after the ns/op field of a result line.
var allocsField = regexp.MustCompile(`\s([0-9.e+]+) allocs/op`)

// eventsField matches the events/op metric a campaign bench reports with
// b.ReportMetric.
var eventsField = regexp.MustCompile(`\s([0-9.e+]+) events/op`)

// parse returns ns/op samples per benchmark name.
func parse(lines []string) map[string][]float64 {
	return parseField(lines, nil)
}

// parseAll returns the ns/op and the allocs/op samples per benchmark name;
// a benchmark run without allocation reporting has no allocs/op samples.
func parseAll(lines []string) (ns, allocs map[string][]float64) {
	return parseField(lines, nil), parseField(lines, allocsField)
}

// parseField returns the samples, per benchmark name, of the metric that
// field matches after the ns/op field of each result line — or of ns/op
// itself when field is nil.
func parseField(lines []string, field *regexp.Regexp) map[string][]float64 {
	out := make(map[string][]float64)
	for _, line := range lines {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		num := m[2]
		if field != nil {
			f := field.FindStringSubmatch(line[len(m[0]):])
			if f == nil {
				continue
			}
			num = f[1]
		}
		if v, err := strconv.ParseFloat(num, 64); err == nil {
			out[m[1]] = append(out[m[1]], v)
		}
	}
	return out
}

// allocSlack is how far a median allocs/op may exceed its baseline.
const allocSlack = 0.01

// median of a non-empty sample set; medians resist the occasional CI
// scheduling hiccup better than means.
func median(s []float64) float64 {
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func main() {
	oldPath := flag.String("old", "", "baseline snapshot (previous PR's BENCH_N.json)")
	newPath := flag.String("new", "", "fresh snapshot to check")
	tolerance := flag.Float64("tolerance", 1.5, "fail when new median ns/op exceeds old by this factor")
	match := flag.String("match", ".*", "only guard benchmarks whose name matches this regexp")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -old and -new are required")
		os.Exit(2)
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: bad -match: %v\n", err)
		os.Exit(2)
	}

	load := func(path string) (ns, allocs, events map[string][]float64) {
		lines, err := readBenchLines(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
		ns, allocs = parseAll(lines)
		return ns, allocs, parseField(lines, eventsField)
	}
	oldB, oldA, oldE := load(*oldPath)
	newB, newA, newE := load(*newPath)

	failed := false
	if !guard(os.Stdout, oldB, newB, *tolerance, re, *oldPath) {
		fmt.Fprintf(os.Stderr, "benchguard: ns/op regression beyond %.2fx tolerance\n", *tolerance)
		failed = true
	}
	if !guardAllocs(os.Stdout, oldA, newA, re) {
		fmt.Fprintf(os.Stderr, "benchguard: allocs/op regression beyond %.0f%%\n", 100*allocSlack)
		failed = true
	}
	if !guardEvents(os.Stdout, oldE, newE, re) {
		fmt.Fprintln(os.Stderr, "benchguard: events/op changed")
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// guardAllocs compares median allocs/op over the benchmarks both snapshots
// report it for, printing one sorted line per compared benchmark, and
// reports whether every one stayed within allocSlack of its baseline.
func guardAllocs(w io.Writer, oldA, newA map[string][]float64, re *regexp.Regexp) bool {
	return guardMetric(w, oldA, newA, re, "allocs/op", func(o, n float64) bool { return n > o*(1+allocSlack) })
}

// guardEvents compares median events/op like guardAllocs, but exactly:
// any change in either direction fails.
func guardEvents(w io.Writer, oldE, newE map[string][]float64, re *regexp.Regexp) bool {
	return guardMetric(w, oldE, newE, re, "events/op", func(o, n float64) bool { return n != o })
}

// guardMetric compares the median of one per-op metric over the matched
// benchmarks both snapshots report it for, printing one sorted line per
// benchmark, and reports whether none of them fails.
func guardMetric(w io.Writer, oldM, newM map[string][]float64, re *regexp.Regexp, unit string, fails func(o, n float64) bool) bool {
	names := make([]string, 0, len(newM))
	for name := range newM {
		if _, ok := oldM[name]; ok && re.MatchString(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		o, n := median(oldM[name]), median(newM[name])
		verdict := "ok  "
		if fails(o, n) {
			verdict = "FAIL"
			ok = false
		}
		fmt.Fprintf(w, "%s %-45s old %12.0f %s  new %12.0f %s\n", verdict, name, o, unit, n, unit)
	}
	return ok
}

// guard compares the two snapshots over their intersection, printing one
// deterministic (sorted) line per benchmark — ok/FAIL for common names,
// SKIP for retired ones, NEW for benchmarks the baseline predates — and
// reports whether the guard passes. Missing baselines only warn: the guard
// checks trajectories, and a benchmark's first snapshot has none.
func guard(w io.Writer, oldB, newB map[string][]float64, tolerance float64, re *regexp.Regexp, oldPath string) bool {
	names := make([]string, 0, len(oldB)+len(newB))
	for name := range oldB {
		names = append(names, name)
	}
	for name := range newB {
		if _, ok := oldB[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	failed := false
	compared, missing := 0, 0
	for _, name := range names {
		if !re.MatchString(name) {
			continue
		}
		oldS, inOld := oldB[name]
		newS, inNew := newB[name]
		switch {
		case !inNew:
			fmt.Fprintf(w, "SKIP %-45s retired (only in %s)\n", name, oldPath)
		case !inOld:
			missing++
			fmt.Fprintf(w, "NEW  %-45s (no baseline; not guarded this round)\n", name)
		default:
			compared++
			o, n := median(oldS), median(newS)
			ratio := n / o
			verdict := "ok  "
			if ratio > tolerance {
				verdict = "FAIL"
				failed = true
			}
			fmt.Fprintf(w, "%s %-45s old %12.0f ns/op  new %12.0f ns/op  ratio %.2f\n", verdict, name, o, n, ratio)
		}
	}
	if compared == 0 {
		fmt.Fprintf(w, "benchguard: warning: no common benchmarks between the snapshots "+
			"(%d new without a baseline); nothing to guard yet\n", missing)
		return true
	}
	if failed {
		return false
	}
	fmt.Fprintf(w, "benchguard: %d benchmarks within %.2fx of %s (%d new unguarded)\n",
		compared, tolerance, oldPath, missing)
	return true
}
