package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// A bench is one workload instantiated for one seed: its generated inputs
// and a factory for repetitions. The program under test only ever sees
// what inputs returns.
type bench interface {
	// inputs returns the generated inputs, by file name, to be written
	// next to the results.
	inputs() map[string][]byte
	// setup turns the inputs into runnable work for one repetition. It is
	// the timed set-up phase (setup_s).
	setup(tr *tracer) (repetition, error)
}

// A repetition is one set-up instance of a workload.
type repetition interface {
	// run is the timed phase (wall_s).
	run(tr *tracer)
	// check verifies the outputs of run, untimed, and records the layer
	// counters and host-time samples in o.
	check(o *outcome)
	// close releases what setup started and waits for it to stop.
	close()
}

// poller is implemented by repetitions with state worth sampling while the
// timed phase runs (the what-if queue depth).
type poller interface{ poll(o *outcome) }

// prober is implemented by benches that need one extra, untimed run to
// read layer counters their timed entry point does not expose.
type prober interface{ probe(o *outcome) }

// outcome collects what one repetition's check found.
type outcome struct {
	ops    int      // operations attempted
	failed int      // operations whose output check failed
	notes  []string // why they failed
	// digests holds one digest per checked operation, in a fixed order;
	// every repetition of one seed must reproduce them exactly.
	digests []string
	// counts are the layer counters of one repetition: exact for a seed.
	counts map[string]float64
	// samples are host-time observations, pooled over repetitions. A name
	// ending in _max reduces to its maximum, any other to its median; a
	// "lat:" prefix marks a latency class (see latencyMetrics).
	samples map[string][]float64

	mu sync.Mutex // guards samples: a poller adds them while run executes
}

func newOutcome() *outcome {
	return &outcome{counts: map[string]float64{}, samples: map[string][]float64{}}
}

// op records one checked operation: its digest and, if err is non-nil, a
// failure.
func (o *outcome) op(digest string, err error) {
	o.ops++
	o.digests = append(o.digests, digest)
	if err != nil {
		o.fail(err)
	}
}

func (o *outcome) fail(err error) {
	o.failed++
	if len(o.notes) < 20 {
		o.notes = append(o.notes, err.Error())
	}
}

func (o *outcome) add(name string, v float64) { o.counts[name] += v }

func (o *outcome) sample(name string, v float64) {
	o.mu.Lock()
	o.samples[name] = append(o.samples[name], v)
	o.mu.Unlock()
}

// repStats is what the driver measured around one repetition.
type repStats struct {
	setups       []float64 // seconds, one per set-up
	wall         float64   // seconds
	allocBytes   float64
	allocObjects float64
	peakLive     float64 // bytes
	gcCycles     float64
	gcPauseMs    float64
	gcCPUShare   float64
	out          *outcome
}

// phase is a sequence of repetitions.
type phase struct {
	reps []repStats
	// attempted and failed include set-up errors and digest mismatches.
	attempted, failed int
	notes             []string
}

// setupsPerRep is how many times each repetition is set up.
const setupsPerRep = 3

func setupTimes(reps []repStats) []float64 {
	var out []float64
	for _, r := range reps {
		out = append(out, r.setups...)
	}
	return out
}

// repeat runs repetitions until the budget is spent, at least minReps of
// them. Digests of every repetition are compared with ref (the first
// repetition's, when ref is nil): a mismatch is a failed operation.
func repeat(b bench, budget float64, minReps int, tr *tracer, ref *[]string) *phase {
	ph := &phase{}
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < budget; i++ {
		tr.beginRep(i)
		// Set up several times and keep the last instance: setup_s is the
		// median over all of them.
		var r repetition
		var err error
		var setups []float64
		for k := 0; k < setupsPerRep && err == nil; k++ {
			if r != nil {
				r.close()
			}
			sp := tr.phase("setup")
			t0 := time.Now()
			r, err = b.setup(tr)
			setups = append(setups, time.Since(t0).Seconds())
			tr.end(sp)
		}
		if err != nil {
			ph.attempted++
			ph.failed++
			ph.notes = append(ph.notes, "setup: "+err.Error())
			// A set-up that fails fails the same way every time.
			break
		}
		st := timed(r, tr)
		st.setups = setups
		r.close()
		o := st.out
		r.check(o)
		if *ref == nil {
			*ref = o.digests
		} else {
			for _, bad := range digestMismatches(*ref, o.digests) {
				o.fail(fmt.Errorf("repetition %d: %s", i, bad))
			}
		}
		ph.reps = append(ph.reps, st)
		ph.attempted += o.ops
		ph.failed += o.failed
		ph.notes = append(ph.notes, o.notes...)
	}
	return ph
}

// digestMismatches lists the operations whose digest differs from ref.
func digestMismatches(ref, got []string) []string {
	var bad []string
	if len(ref) != len(got) {
		bad = append(bad, fmt.Sprintf("%d digests, want %d", len(got), len(ref)))
	}
	for i := 0; i < len(ref) && i < len(got); i++ {
		if ref[i] != got[i] {
			bad = append(bad, fmt.Sprintf("operation %d: result digest differs from the first repetition", i))
		}
	}
	return bad
}

// timed runs the timed phase of r with the runtime counters read around
// it and the live heap sampled while it runs.
func timed(r repetition, tr *tracer) repStats {
	o := newOutcome()
	runtime.GC() // every timed phase starts from the same collected heap
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := readCPU()

	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		p, _ := r.(poller)
		peak := liveHeap()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- math.Max(peak, liveHeap())
				return
			case <-t.C:
				peak = math.Max(peak, liveHeap())
				if p != nil {
					p.poll(o)
				}
			}
		}
	}()

	sp := tr.phase("run")
	t0 := time.Now()
	r.run(tr)
	wall := time.Since(t0).Seconds()
	tr.end(sp)

	close(stop)
	peak := <-done
	runtime.ReadMemStats(&ms1)
	cpu1 := readCPU()
	st := repStats{
		wall:         wall,
		allocBytes:   float64(ms1.TotalAlloc - ms0.TotalAlloc),
		allocObjects: float64(ms1.Mallocs - ms0.Mallocs),
		peakLive:     peak,
		gcCycles:     float64(ms1.NumGC - ms0.NumGC),
		gcPauseMs:    float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		out:          o,
	}
	if d := cpu1[1] - cpu0[1]; d > 0 {
		st.gcCPUShare = (cpu1[0] - cpu0[0]) / d
	}
	return st
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/live:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// liveHeap is the heap the last collection marked live.
func liveHeap() float64 {
	s := []metrics.Sample{runtimeSamples[0]}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// readCPU returns the GC and total CPU seconds the runtime has accounted.
func readCPU() [2]float64 {
	s := []metrics.Sample{runtimeSamples[1], runtimeSamples[2]}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// endToEnd measures the end-to-end metrics, untraced.
func endToEnd(b bench, seconds float64, log io.Writer) (result, map[string]any) {
	var ref []string
	ph := repeat(b, seconds, 3, nil, &ref)
	m := map[string]float64{}
	if len(ph.reps) > 0 {
		m = map[string]float64{
			"wall_s":       median(col(ph.reps, func(r repStats) float64 { return r.wall })),
			"setup_s":      median(setupTimes(ph.reps)),
			"alloc_mb":     median(col(ph.reps, func(r repStats) float64 { return r.allocBytes / 1e6 })),
			"allocs_k":     median(col(ph.reps, func(r repStats) float64 { return r.allocObjects / 1e3 })),
			"peak_heap_mb": median(col(ph.reps, func(r repStats) float64 { return r.peakLive / 1e6 })),
		}
	}
	res := finish(ph.attempted, ph.failed, m, endToEndMetrics)
	logNotes(log, ph.notes)
	return res, map[string]any{
		"repetitions": len(ph.reps), "failures": ph.notes,
		"wall_s":  col(ph.reps, func(r repStats) float64 { return r.wall }),
		"setup_s": setupTimes(ph.reps),
	}
}

// perLayer measures the per-layer metrics: half of the budget untraced
// (counters and host-time samples), then half under a CPU profile with
// spans recorded around every call into a layer (self shares and the
// tracing overhead). Every output check runs in both halves.
func perLayer(b bench, seconds float64, dir string, log io.Writer) (result, map[string]any, error) {
	var ref []string
	plain := repeat(b, seconds/2, 2, nil, &ref)
	attempted, failed, notes := plain.attempted, plain.failed, plain.notes
	if len(plain.reps) == 0 {
		logNotes(log, notes)
		return finish(attempted, failed, nil, perLayerMetrics), map[string]any{"failures": notes}, nil
	}

	m := map[string]float64{}
	for k, v := range plain.reps[0].out.counts {
		m[k] = v
	}
	pooled := map[string][]float64{}
	for _, r := range plain.reps {
		for k, v := range r.out.samples {
			pooled[k] = append(pooled[k], v...)
		}
	}
	if p, ok := b.(prober); ok {
		o := newOutcome()
		p.probe(o)
		for k, v := range o.counts {
			m[k] = v
		}
		attempted += o.ops
		failed += o.failed
		notes = append(notes, o.notes...)
	}
	derive(m)
	extra := map[string]any{}
	for k, v := range pooled {
		if strings.HasPrefix(k, "lat:") {
			for n, x := range latencyMetrics("whatif."+strings.TrimPrefix(k, "lat:"), v) {
				m[n] = x
			}
			continue
		}
		if strings.HasSuffix(k, "_max") {
			m[k] = maxOf(v)
		} else {
			m[k] = median(v)
		}
	}
	m["runtime.gc_cycles"] = median(col(plain.reps, func(r repStats) float64 { return r.gcCycles }))
	m["runtime.gc_pause_ms"] = median(col(plain.reps, func(r repStats) float64 { return r.gcPauseMs }))
	m["runtime.gc_cpu_share"] = median(col(plain.reps, func(r repStats) float64 { return r.gcCPUShare }))

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, nil, fmt.Errorf("starting the CPU profile: %w", err)
	}
	traced := repeat(b, seconds/2, 1, tr, &ref)
	pprof.StopCPUProfile()
	attempted += traced.attempted
	failed += traced.failed
	notes = append(notes, traced.notes...)

	shares, samples, err := selfShares(prof.Bytes())
	if err != nil {
		return result{}, nil, err
	}
	for _, l := range layers {
		m[l+".self_share"] = shares[l]
	}
	if len(traced.reps) > 0 {
		m["bench.tracing_overhead_s"] = median(col(traced.reps, func(r repStats) float64 { return r.wall })) -
			median(col(plain.reps, func(r repStats) float64 { return r.wall }))
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return result{}, nil, err
	}
	if err := tr.writeFile(filepath.Join(dir, "spans.jsonl")); err != nil {
		return result{}, nil, err
	}
	extra["untraced_repetitions"] = len(plain.reps)
	extra["traced_repetitions"] = len(traced.reps)
	extra["profile_samples"] = samples
	extra["span_self_ms"] = tr.selfTimes()
	extra["failures"] = notes
	logNotes(log, notes)
	fmt.Fprintf(log, "self shares over %d profile samples; traced minus untraced wall %.4f s\n",
		samples, m["bench.tracing_overhead_s"])
	return finish(attempted, failed, m, perLayerMetrics), extra, nil
}

// finish builds the printed result: every metric of the list, with its
// unit, and the failure tally.
func finish(attempted, failed int, m map[string]float64, list []metricSpec) result {
	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, s := range list {
		res.Metrics[s.name] = metric{Value: m[s.name], Unit: s.unit}
	}
	if res.Attempted < 1 {
		res.Attempted, res.Failed = 1, 1
	}
	res.Correct = res.Failed == 0
	return res
}

func logNotes(w io.Writer, notes []string) {
	for _, n := range notes {
		fmt.Fprintln(w, "FAILED:", n)
	}
}

// tailLadder are the percentiles a tail latency is reported at: the
// highest one that still has at least ten samples beyond it.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 80, 75, 50}

// latencyMetrics reduces one latency class to its median, its tail, the
// tail's percentile and the sample count.
func latencyMetrics(prefix string, v []float64) map[string]float64 {
	pct := 50.0
	for _, p := range tailLadder {
		if len(v)-rank(p, len(v)) >= 10 {
			pct = p
			break
		}
	}
	return map[string]float64{
		prefix + "_p50_ms":   percentile(v, 50),
		prefix + "_tail_ms":  percentile(v, pct),
		prefix + "_tail_pct": pct,
		prefix + "_samples":  float64(len(v)),
	}
}

// percentile is the nearest-rank percentile of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[max(0, rank(p, len(s))-1)]
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(p float64, n int) int {
	return min(n, int(math.Ceil(p*float64(n)/100-1e-9)))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(v []float64) float64 {
	m := math.Inf(-1)
	for _, x := range v {
		m = math.Max(m, x)
	}
	if len(v) == 0 {
		return 0
	}
	return m
}

func col(reps []repStats, f func(repStats) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}
