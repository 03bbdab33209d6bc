package main

import (
	"regexp"
	"strings"
	"testing"
)

var any = regexp.MustCompile(".*")

func TestGuardIntersection(t *testing.T) {
	oldB := map[string][]float64{
		"BenchmarkA": {100, 110, 90},
		"BenchmarkB": {200},
		"BenchmarkR": {50}, // retired
	}
	newB := map[string][]float64{
		"BenchmarkA": {120},       // 1.2x: within tolerance
		"BenchmarkB": {400},       // 2.0x: regression
		"BenchmarkN": {10, 10, 9}, // no baseline
	}
	var b strings.Builder
	if guard(&b, oldB, newB, 1.5, any, "old.json") {
		t.Fatalf("guard passed despite a 2.0x regression:\n%s", b.String())
	}
	out := b.String()
	for _, want := range []string{
		"ok   BenchmarkA",
		"FAIL BenchmarkB",
		"SKIP BenchmarkR",
		"NEW  BenchmarkN",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Deterministic order: lines sorted by benchmark name.
	if strings.Index(out, "BenchmarkA") > strings.Index(out, "BenchmarkB") ||
		strings.Index(out, "BenchmarkN") > strings.Index(out, "BenchmarkR") {
		t.Errorf("output not sorted by name:\n%s", out)
	}
}

// TestGuardMissingBaselineWarns pins the intersection contract: a baseline
// that predates every current benchmark warns and passes instead of
// erroring — the guard has nothing to compare yet.
func TestGuardMissingBaselineWarns(t *testing.T) {
	oldB := map[string][]float64{"BenchmarkOld": {100}}
	newB := map[string][]float64{"BenchmarkNew1": {10}, "BenchmarkNew2": {20}}
	var b strings.Builder
	if !guard(&b, oldB, newB, 1.5, any, "old.json") {
		t.Fatalf("guard failed with no common benchmarks:\n%s", b.String())
	}
	out := b.String()
	if !strings.Contains(out, "warning: no common benchmarks") {
		t.Errorf("missing-intersection warning absent:\n%s", out)
	}
	if !strings.Contains(out, "2 new without a baseline") {
		t.Errorf("new-benchmark count absent:\n%s", out)
	}
}

func TestGuardMatchFilter(t *testing.T) {
	oldB := map[string][]float64{"BenchmarkKeep": {100}, "BenchmarkDrop": {100}}
	newB := map[string][]float64{"BenchmarkKeep": {100}, "BenchmarkDrop": {1000}}
	var b strings.Builder
	if !guard(&b, oldB, newB, 1.5, regexp.MustCompile("Keep"), "old.json") {
		t.Fatalf("guard failed on a filtered-out regression:\n%s", b.String())
	}
	if strings.Contains(b.String(), "BenchmarkDrop") {
		t.Errorf("filtered benchmark still reported:\n%s", b.String())
	}
}

func TestParseBenchLines(t *testing.T) {
	lines := []string{
		"BenchmarkEventKernel-8   \t 1000 \t 123.4 ns/op \t 5 B/op",
		"BenchmarkEventKernel-8   \t 1200 \t 120.0 ns/op",
		"not a benchmark line",
		"BenchmarkOther 	 10 	 9e+03 ns/op",
	}
	got := parse(lines)
	if len(got["BenchmarkEventKernel"]) != 2 {
		t.Fatalf("samples = %v, want 2 for BenchmarkEventKernel", got)
	}
	if v := got["BenchmarkOther"]; len(v) != 1 || v[0] != 9000 {
		t.Fatalf("BenchmarkOther = %v, want [9000]", v)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// TestGuardAllocs pins the machine-independent allocs/op gate: parsed from
// -benchmem result lines, compared by median, failing on any rise beyond
// 1% — including from zero — while ns/op-only benchmarks are not gated.
func TestGuardAllocs(t *testing.T) {
	lines := []string{
		"BenchmarkFigure2SyncOn-2 \t 1 \t 2.1e+09 ns/op \t 6.0e+07 B/op \t 75000 allocs/op",
		"BenchmarkFigure2SyncOn-2 \t 1 \t 2.0e+09 ns/op \t 6.0e+07 B/op \t 75003 allocs/op",
		"BenchmarkFigure2SyncOn-2 \t 1 \t 2.2e+09 ns/op \t 6.0e+07 B/op \t 75001 allocs/op",
		"BenchmarkHeap-2 \t 1000 \t 52.0 ns/op \t 0 B/op \t 0 allocs/op",
		"BenchmarkFleet-2 \t 1 \t 9e+08 ns/op \t 1024 tenants",
	}
	ns, allocs := parseAll(lines)
	if len(ns["BenchmarkFleet"]) != 1 || len(allocs["BenchmarkFleet"]) != 0 {
		t.Fatalf("custom-metric line parsed as allocs: ns %v, allocs %v", ns, allocs)
	}
	if v := allocs["BenchmarkFigure2SyncOn"]; len(v) != 3 || median(v) != 75001 {
		t.Fatalf("Figure2SyncOn allocs = %v, want median 75001 of 3", v)
	}
	if v := allocs["BenchmarkHeap"]; len(v) != 1 || v[0] != 0 {
		t.Fatalf("Heap allocs = %v, want [0]", v)
	}

	for _, c := range []struct {
		name     string
		fig, hep float64 // new medians
		pass     bool
	}{
		{"unchanged", 75001, 0, true},
		{"fewer", 7000, 0, true},
		{"within 1%", 75700, 0, true},
		{"beyond 1%", 75800, 0, false},
		{"zero to one", 75001, 1, false},
	} {
		newA := map[string][]float64{
			"BenchmarkFigure2SyncOn": {c.fig},
			"BenchmarkHeap":          {c.hep},
			"BenchmarkNew":           {99}, // no baseline: not gated
		}
		var b strings.Builder
		if got := guardAllocs(&b, allocs, newA, any); got != c.pass {
			t.Errorf("%s: guardAllocs = %v, want %v:\n%s", c.name, got, c.pass, b.String())
		}
		if strings.Contains(b.String(), "BenchmarkNew") || strings.Contains(b.String(), "BenchmarkFleet") {
			t.Errorf("%s: benchmark without an allocs baseline was gated:\n%s", c.name, b.String())
		}
	}
}
