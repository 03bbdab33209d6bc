package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/paper"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{endToEndMetrics, perLayerMetrics} {
		for _, m := range list {
			if !nameRE.MatchString(m.name) || seen[m.name] {
				t.Errorf("metric %q: bad or repeated name", m.name)
			}
			seen[m.name] = true
			if !unitRE.MatchString(m.unit) {
				t.Errorf("metric %q: bad unit %q", m.name, m.unit)
			}
			if m.better != "higher" && m.better != "lower" {
				t.Errorf("metric %q: better is %q", m.name, m.better)
			}
		}
	}
	for _, l := range layers {
		if !seen[l+".self_share"] {
			t.Errorf("layer %s has no self_share metric", l)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps BENCHMARK.json and the metric
// lists the driver emits identical, in order.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, m := range doc.EndToEnd {
		got = append(got, fmt.Sprint(m.Name, m.Unit, m.Better, m.Bound))
	}
	for _, m := range endToEndMetrics {
		want = append(want, fmt.Sprint(m.name, m.unit, m.better, m.bound))
	}
	for _, m := range doc.PerLayer {
		got = append(got, fmt.Sprint(m.Name, m.Unit, m.Better))
	}
	for _, m := range perLayerMetrics {
		want = append(want, fmt.Sprint(m.name, m.unit, m.better))
	}
	if !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json metrics\n%v\ndiffer from the driver's\n%v", got, want)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, driver has %v", names, workloadNames())
	}
}

// TestRunEmitsEveryMetric runs the smallest workload both ways and checks
// the last output line: every listed metric, with its unit, and nothing
// else.
func TestRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the observed-replay workload")
	}
	for trace, list := range [][]metricSpec{endToEndMetrics, perLayerMetrics} {
		var out, log bytes.Buffer
		args := []string{"--workload", "observed-replay", "--seed", "5", "--seconds", "0.5",
			"--trace", fmt.Sprint(trace), "--out", t.TempDir()}
		if code := run(args, &out, &log); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, log.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace %d: correct=%v attempted=%d failed=%d: %s", trace, res.Correct, res.Attempted, res.Failed, log.String())
		}
		if len(res.Metrics) != len(list) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(res.Metrics), len(list))
		}
		for _, m := range list {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("trace %d: metric %s = %+v, want unit %s", trace, m.name, got, m.unit)
			}
		}
	}
}

// TestCorruptTraceUploadFails proves the what-if checks are live: a trace
// upload whose bytes were damaged after recording is a failed operation.
func TestCorruptTraceUploadFails(t *testing.T) {
	b, err := newWhatifMix(1)
	if err != nil {
		t.Fatal(err)
	}
	mix := b.(*whatifMix)
	var upload item
	for _, it := range mix.clients[0] {
		if it.Class == "trace" {
			upload = it
			break
		}
	}
	mix.clients = [2][]item{{upload}, nil}
	for _, corrupt := range []bool{false, true} {
		rep, err := mix.setup(nil)
		if err != nil {
			t.Fatal(err)
		}
		r := rep.(*whatifRep)
		if corrupt {
			tr := r.traces[upload.Trace]
			r.traces[upload.Trace] = append(tr[:len(tr)/2:len(tr)/2], 0xff, 0xff, 0xff)
		}
		r.run(nil)
		r.close()
		o := newOutcome()
		r.check(o)
		if want := map[bool]int{false: 0, true: 1}[corrupt]; o.ops != 1 || o.failed != want {
			t.Errorf("corrupt=%v: %d ops, %d failed, want 1 and %d: %v", corrupt, o.ops, o.failed, want, o.notes)
		}
	}
}

// flaky is a bench whose second repetition produces a different result.
type flaky struct{ n int }

func (f *flaky) inputs() map[string][]byte { return nil }
func (f *flaky) setup(*tracer) (repetition, error) {
	f.n++
	return &flakyRep{n: f.n}, nil
}

type flakyRep struct{ n int }

func (r *flakyRep) run(*tracer) {}
func (r *flakyRep) check(o *outcome) {
	o.op("same", nil)
	o.op(fmt.Sprint(r.n > setupsPerRep), nil)
}
func (r *flakyRep) close() {}

// TestDigestMismatchFails: a repetition whose result digest differs from
// the first repetition's is a failed operation.
func TestDigestMismatchFails(t *testing.T) {
	var ref []string
	ph := repeat(&flaky{}, 0, 2, nil, &ref)
	if ph.attempted != 4 || ph.failed != 1 {
		t.Errorf("attempted %d, failed %d, want 4 and 1: %v", ph.attempted, ph.failed, ph.notes)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{19, 50}, {40, 75}, {100, 90}, {250, 95}, {999, 98}, {1000, 99}, {10000, 99.9}} {
		v := make([]float64, tc.n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		m := latencyMetrics("x", v)
		if pct := m["x_tail_pct"]; pct != tc.want {
			t.Errorf("n=%d: tail at p%v, want p%v", tc.n, pct, tc.want)
		}
		beyond := 0
		for _, x := range v {
			if x > m["x_tail_ms"] {
				beyond++
			}
		}
		if tc.n >= 20 && beyond < 10 {
			t.Errorf("n=%d: %d samples beyond the tail", tc.n, beyond)
		}
	}
}

func TestSampleLayer(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/pfs.(*Server).store", "repro/internal/sim.(*Engine).Run"}, "pfs"},
		{[]string{"repro/internal/qos/report.RenderPareto", "repro/internal/whatif.(*Server).Compute"}, "whatif"},
		{[]string{"repro/internal/cluster.Build", "main.main"}, "core"},
		{[]string{"repro/internal/population.Generate"}, "scenario"},
		{[]string{"encoding/json.Marshal", "net/http.(*conn).serve"}, "whatif"},
		{[]string{"net/http.(*Client).Do", "main.(*whatifRep).do"}, "bench"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"repro/internal/sim.heap[go.shape.int].push"}, "sim"},
	} {
		if got := sampleLayer(tc.stack); got != tc.want {
			t.Errorf("%v: %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestSelfSharesFromRealProfile profiles a small simulation and checks the
// attribution parses the runtime's own profile format.
func TestSelfSharesFromRealProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a simulation")
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		cfg := paper.Config(16)
		cfg.Backend = cluster.RAM
		core.Prepare(cfg, core.TwoAppSpecs(cfg, 8, cfg.CoresPerNode, paper.ContigSpec())).Run()
	}
	pprof.StopCPUProfile()
	shares, n, err := selfShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if n == 0 || sum < 0.999 || sum > 1.001 {
		t.Fatalf("%d samples, shares %v sum to %v", n, shares, sum)
	}
	if shares["sim"]+shares["netsim"]+shares["pfs"] == 0 {
		t.Errorf("no samples in the simulator's layers: %v", shares)
	}
}
