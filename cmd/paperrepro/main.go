// Command paperrepro regenerates every table and figure of Yildiz et al.,
// "On the Root Causes of Cross-Application I/O Interference in HPC Storage
// Systems" (IPDPS 2016) on the simulated platform.
//
// Usage:
//
//	paperrepro -exp all                 # everything, paper-size grids
//	paperrepro -exp fig2 -scale 8       # one figure on a 1/8-size platform
//	paperrepro -exp table1 -format tsv  # machine-readable output
//
// Experiments: table1, fig2, fig3, fig4, fig5, fig6 (includes table2),
// fig7, fig8, fig9, fig10, fig11, fig12, ablation-policy, ablation-read.
// Beyond the paper, "scenarios" runs every built-in N-application scenario
// (see SCENARIOS.md) on HDD and SSD; "mitigate" sweeps every built-in
// scenario on HDD under each server-side QoS scheduler — off, fairshare,
// tokenbucket, controller (internal/qos) — and prints the per-scenario
// Pareto view: interference removed versus aggregate throughput paid;
// "trace" records the periodic-checkpoint builtin at request level
// (internal/trace), prints its Darshan-style summary, replays it
// bit-identically and replays it again under fair-share QoS; and "faults"
// runs every built-in fault scenario (internal/fault: deterministic server
// crashes, degraded devices, link flaps) against its healthy twin and
// reports IF-under-faults plus the availability ledger; and "fleet" runs
// every generated-population builtin (internal/population: ≥1000 tenants,
// Zipf volumes, Poisson arrivals) through the fleet summarizer — per-class
// IF distributions, slowdown-vs-alone percentiles and sampled
// aggressor/victim pairs instead of the infeasible N×N matrix.
// Note: for these extension experiments any -scale > 1 selects the fixed smoke
// grid (procs/8, volume/16, ≤3 δ points) rather than acting as a divisor;
// cmd/scenarios is the richer single-scheduler driver (-run, -file,
// -backend, -smoke, -qos, -trace, -replay).
//
// -scale divides node/server counts (processes per server stay constant);
// -coarse uses 5-point δ grids instead of the paper's 9-point grids;
// -j bounds the number of concurrent simulations (default GOMAXPROCS,
// -j 1 forces the serial reference path; results are identical either way).
//
// Profiling: -cpuprofile and -memprofile write pprof profiles covering the
// selected experiments, so simulator performance work can profile a real
// campaign (where δ-point simulations dominate) instead of microbenchmarks:
//
//	paperrepro -exp fig2 -scale 4 -coarse -j 1 -cpuprofile cpu.out
//	go tool pprof cpu.out
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/pfs"
	"repro/internal/qos"
	qosreport "repro/internal/qos/report"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintf(os.Stderr, "paperrepro: %v\n", err)
		os.Exit(1)
	}
}

func realMain() error {
	exp := flag.String("exp", "all", "experiment id (table1, fig2..fig12, table2, ablation-policy, ablation-read, scenarios, mitigate, trace, faults, fleet, all)")
	scale := flag.Int("scale", 1, "platform scale divisor (1 = paper size)")
	coarse := flag.Bool("coarse", false, "use coarse 5-point delta grids")
	format := flag.String("format", "ascii", "output format: ascii or tsv")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the campaign) to `file`")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	kind := paper.GridFull
	if *coarse {
		kind = paper.GridCoarse
	}
	paper.Pool = core.Runner{Parallelism: *jobs}
	w := os.Stdout
	run := newRunner(w, *format, *scale, kind)

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
			"fig8", "fig9", "fig10", "fig11", "fig12", "ablation-policy", "ablation-read"}
	}
	for _, id := range ids {
		if err := run.one(strings.TrimSpace(id)); err != nil {
			return err
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC() // materialize the live heap before snapshotting
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	return nil
}

type runner struct {
	w      io.Writer
	format string
	scale  int
	kind   paper.GridKind
}

func newRunner(w io.Writer, format string, scale int, kind paper.GridKind) *runner {
	return &runner{w: w, format: format, scale: scale, kind: kind}
}

func (r *runner) emit(tables ...*report.Table) {
	for _, t := range tables {
		if r.format == "tsv" {
			_ = t.WriteTSV(r.w)
		} else {
			_ = t.WriteASCII(r.w)
		}
		fmt.Fprintln(r.w)
	}
}

func (r *runner) one(id string) error {
	start := time.Now()
	defer func() {
		fmt.Fprintf(r.w, "# %s done in %v\n\n", id, time.Since(start).Round(time.Millisecond))
	}()
	switch id {
	case "table1":
		r.emit(paper.RenderTable1(paper.Table1()))
	case "fig2":
		on := paper.Fig2(r.scale, true, r.kind)
		off := paper.Fig2(r.scale, false, r.kind)
		r.emit(
			paper.RenderAlone("Figure 2 baselines (sync ON)", on),
			paper.RenderSeries("Figure 2(a,b): contiguous, sync ON", on),
			paper.RenderAlone("Figure 2 baselines (sync OFF)", off),
			paper.RenderSeries("Figure 2(c,d): contiguous, sync OFF", off),
		)
	case "fig3":
		on := paper.Fig3(r.scale, true, r.kind)
		off := paper.Fig3(r.scale, false, r.kind)
		r.emit(
			paper.RenderAlone("Figure 3 baselines (sync ON)", on),
			paper.RenderSeries("Figure 3(a-d): strided, sync ON", on),
			paper.RenderAlone("Figure 3 baselines (sync OFF)", off),
			paper.RenderSeries("Figure 3(e,f): strided, sync OFF", off),
		)
	case "fig4":
		s := paper.Fig4(r.scale, r.kind)
		r.emit(
			paper.RenderAlone("Figure 4 baselines", s),
			paper.RenderSeries("Figure 4: writers per node", s),
		)
	case "fig5":
		on := paper.Fig5(r.scale, true, r.kind)
		off := paper.Fig5(r.scale, false, r.kind)
		r.emit(
			paper.RenderAlone("Figure 5 baselines (sync ON)", on),
			paper.RenderSeries("Figure 5(a): bandwidth, sync ON", on),
			paper.RenderAlone("Figure 5 baselines (sync OFF)", off),
			paper.RenderSeries("Figure 5(b): bandwidth, sync OFF", off),
		)
	case "fig6", "table2":
		pts, series := paper.Fig6(r.scale, []int{4, 8, 12, 24}, r.kind)
		r.emit(
			paper.RenderScaling(pts),
			paper.RenderTable2(pts),
			paper.RenderSeries("Figure 6(b): throughput delta-graph", series),
		)
	case "fig7":
		hdd := paper.Fig7(r.scale, cluster.HDD, r.kind)
		ram := paper.Fig7(r.scale, cluster.RAM, r.kind)
		r.emit(
			paper.RenderAlone("Figure 7 baselines (HDD)", hdd),
			paper.RenderSeries("Figure 7(a): targeted servers, HDD sync ON", hdd),
			paper.RenderAlone("Figure 7 baselines (RAM)", ram),
			paper.RenderSeries("Figure 7(b): targeted servers, RAM", ram),
		)
	case "fig8":
		stripes := []int64{64 << 10, 128 << 10, 256 << 10}
		on := paper.Fig8(r.scale, true, stripes, r.kind)
		off := paper.Fig8(r.scale, false, stripes, r.kind)
		r.emit(
			paper.RenderAlone("Figure 8 baselines (sync ON)", on),
			paper.RenderSeries("Figure 8(a): stripe size, sync ON", on),
			paper.RenderAlone("Figure 8 baselines (sync OFF)", off),
			paper.RenderSeries("Figure 8(b): stripe size, sync OFF", off),
		)
	case "fig9":
		blocks := []int64{64 << 10, 128 << 10, 256 << 10, 512 << 10}
		on := paper.Fig9(r.scale, true, blocks, r.kind)
		off := paper.Fig9(r.scale, false, blocks, r.kind)
		r.emit(
			paper.RenderAlone("Figure 9 baselines (sync ON)", on),
			paper.RenderSeries("Figure 9(a): request size, sync ON", on),
			paper.RenderAlone("Figure 9 baselines (sync OFF)", off),
			paper.RenderSeries("Figure 9(b): request size, sync OFF", off),
		)
	case "fig10":
		alone, contended := paper.Fig10(r.scale)
		r.emit(
			paper.RenderTrace("Figure 10(a): TCP window, independent run", alone, 800),
			paper.RenderTrace("Figure 10(b): TCP window, interfering", contended, 800),
		)
	case "fig11":
		res := paper.Fig11(r.scale)
		until := res.End.Seconds()
		r.emit(
			paper.RenderProgress("Figure 11(a): application A (first)", res.TraceA, res.TotalA, 1, until),
			paper.RenderProgress("Figure 11(b): application B (second, +10s)", res.TraceB, res.TotalB, 1, until),
		)
	case "fig12":
		s := paper.Fig12(r.scale, []int{128, 256, 352, 512, 704, 960}, r.kind)
		r.emit(
			paper.RenderAlone("Figure 12 baselines", s),
			paper.RenderSeries("Figure 12: client count sweep, HDD sync ON", s),
		)
	case "ablation-policy":
		r.emit(r.ablationPolicy())
	case "ablation-read":
		r.emit(r.ablationRead())
	case "scenarios":
		if err := r.scenarios(); err != nil {
			return err
		}
	case "mitigate":
		if err := r.mitigate(); err != nil {
			return err
		}
	case "trace":
		if err := r.trace(); err != nil {
			return err
		}
	case "faults":
		if err := r.faults(); err != nil {
			return err
		}
	case "fleet":
		if err := r.fleet(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}

// scenarios runs every built-in N-application scenario on its backend axis
// (HDD and SSD) and emits the summary plus the per-result pairwise IF
// matrices. -scale > 1 selects the smoke grid. cmd/scenarios offers finer
// selection (-run, -file, -backend).
func (r *runner) scenarios() error {
	var all []*scenario.Result
	for _, s := range scenario.Builtin() {
		if r.scale > 1 {
			s = s.Smoke()
		}
		results, err := scenario.RunAll(s, paper.Pool)
		if err != nil {
			return err
		}
		for _, res := range results {
			all = append(all, res)
			r.emit(scenario.RenderGraph(res), scenario.RenderMatrix(res))
		}
	}
	r.emit(scenario.RenderSummary(all))
	return nil
}

// mitigate sweeps every built-in scenario on HDD under the standard QoS
// scheme set and emits, per scenario, the Pareto table (plus the raw
// per-scheme δ-graphs) and a campaign summary. -scale > 1 selects the
// smoke grid, like the scenarios experiment.
func (r *runner) mitigate() error {
	schemes := core.StandardSchemes()
	var titles []string
	var sweeps []*core.Sweep
	for _, s := range scenario.Builtin() {
		if r.scale > 1 {
			s = s.Smoke()
		}
		sw, err := scenario.Sweep(s, cluster.HDD, schemes, paper.Pool)
		if err != nil {
			return err
		}
		names := scenario.AppNames(s)
		titles = append(titles, s.Name)
		sweeps = append(sweeps, sw)
		r.emit(
			qosreport.RenderPareto(fmt.Sprintf("%s on hdd: mitigation Pareto view", s.Name), sw),
			qosreport.RenderSweepGraphs(fmt.Sprintf("%s on hdd: per-scheme delta-graphs", s.Name), sw, names),
		)
	}
	r.emit(qosreport.RenderSummary(titles, sweeps))
	return nil
}

// trace demonstrates the trace subsystem in memory: record the periodic
// checkpoint builtin's δ=0 co-run on HDD, print the Darshan-style summary,
// replay it on the recorded platform (verified bit-identical) and once more
// under the fair-share QoS scheduler (the counterfactual arm). -scale > 1
// selects the smoke grid, like the scenarios and mitigate experiments;
// cmd/scenarios -trace/-replay is the file-based driver.
func (r *runner) trace() error {
	s, err := scenario.Lookup("periodic-checkpoint-4")
	if err != nil {
		return err
	}
	if r.scale > 1 {
		s = s.Smoke()
	}
	t, _, err := scenario.Record(s, cluster.HDD)
	if err != nil {
		return err
	}
	rep, err := trace.Replay(t)
	if err != nil {
		return err
	}
	sums := trace.Summarize(t)
	r.emit(
		trace.RenderSummary(fmt.Sprintf("%s on hdd: Darshan-style per-app summary", s.Name), sums),
		trace.RenderSizeHist(fmt.Sprintf("%s on hdd: request-size histogram", s.Name), sums),
		trace.RenderRoundTrip(fmt.Sprintf("%s on hdd: recorded vs replayed completions", s.Name), rep),
	)
	if !rep.Identical() {
		return fmt.Errorf("trace: replay diverged from the recording")
	}
	// FlowSlots 4 serializes the flow layer enough that grant-time
	// arbitration binds even at smoke scale.
	qcfg := t.Header.Cfg
	qcfg.Srv.QoS = qos.Params{Kind: qos.FairShare, FlowSlots: 4}
	qrep, err := trace.ReplayOn(t, qcfg)
	if err != nil {
		return err
	}
	r.emit(trace.RenderRoundTrip(
		fmt.Sprintf("%s on hdd: counterfactual replay under qos=fairshare", s.Name), qrep))
	return nil
}

// faults runs every built-in fault scenario's healthy-vs-faulted
// comparison on HDD and SSD: the same apps twice, with and without the
// injected crash/degrade timeline, reported as IF-under-faults plus the
// availability ledger. -scale > 1 selects the smoke grid, like the
// scenarios experiment; cmd/scenarios -faults is the finer driver.
func (r *runner) faults() error {
	ran := false
	for _, s := range scenario.Builtin() {
		if s.Faults == nil {
			continue
		}
		if r.scale > 1 {
			s = s.Smoke()
		}
		axis, err := s.Backends()
		if err != nil {
			return err
		}
		for _, b := range axis {
			fc, err := scenario.CompareFaults(s, b)
			if err != nil {
				return err
			}
			r.emit(scenario.RenderFaults(s, b, fc), scenario.RenderAvailability(s, b, fc))
			ran = true
		}
	}
	if !ran {
		return fmt.Errorf("no built-in fault scenarios in the registry")
	}
	return nil
}

// fleet runs every generated-population builtin on its pinned backend axis
// through the fleet summarizer and emits the per-class, percentile and
// top-pair views plus the campaign summary. -scale > 1 selects the smoke
// grid (volume/16, procs/8, time knobs/128), like the other extension
// experiments; the tenant count and class mix are preserved, so the smoke
// fleet is the full fleet at reduced per-tenant weight.
func (r *runner) fleet() error {
	var all []*scenario.FleetResult
	for _, s := range scenario.FleetBuiltin() {
		if r.scale > 1 {
			s = s.Smoke()
		}
		results, err := scenario.RunFleetAll(s, paper.Pool)
		if err != nil {
			return err
		}
		for _, f := range results {
			all = append(all, f)
			r.emit(
				scenario.RenderFleetClasses(f),
				scenario.RenderFleetSlowdown(f),
				scenario.RenderFleetPairs(f, 10),
			)
		}
	}
	r.emit(scenario.RenderFleetSummary(all))
	return nil
}

// ablationPolicy compares server request-scheduling policies at δ=+10s —
// the server-side coordination the related work proposes (Song et al.).
func (r *runner) ablationPolicy() *report.Table {
	t := report.New("Ablation: server scheduling policy (contig, HDD sync ON, delta=+10s)",
		"policy", "A_s", "B_s", "unfairness")
	policies := []struct {
		name string
		p    pfs.ReadPolicy
	}{{"fifo (PVFS)", pfs.ReadFIFO}, {"app-ordered", pfs.ReadAppOrdered}, {"round-robin", pfs.ReadRoundRobin}}
	var specs []core.DeltaSpec
	for _, pol := range policies {
		cfg := paper.Config(r.scale)
		cfg.Srv.Policy = pol.p
		apps := core.TwoAppSpecs(cfg, paper.ProcsPerApp(cfg), cfg.CoresPerNode, paper.ContigSpec())
		specs = append(specs, core.DeltaSpec{Cfg: cfg, Apps: apps, Deltas: core.Deltas(10)})
	}
	for i, g := range paper.Pool.RunDeltas(specs) {
		p := g.At(core.Deltas(10)[2])
		t.Add(policies[i].name, p.Elapsed[0].Seconds(), p.Elapsed[1].Seconds(), g.Unfairness())
	}
	return t
}

// ablationRead runs the read/read interference variant (the paper's future
// work) on RAM and HDD backends.
func (r *runner) ablationRead() *report.Table {
	t := report.New("Extension: read/read interference (contiguous reads, delta=0)",
		"backend", "alone_s", "contended_s", "IF")
	backends := []cluster.BackendKind{cluster.HDD, cluster.RAM}
	var specs []core.DeltaSpec
	for _, b := range backends {
		cfg := paper.Config(r.scale)
		cfg.Backend = b
		wl := workload.Spec{Pattern: workload.Contiguous, BlockBytes: paper.BlockBytes, Read: true}
		apps := core.TwoAppSpecs(cfg, paper.ProcsPerApp(cfg), cfg.CoresPerNode, wl)
		specs = append(specs, core.DeltaSpec{Cfg: cfg, Apps: apps, Deltas: core.Deltas()})
	}
	for i, g := range paper.Pool.RunDeltas(specs) {
		p := g.At(0)
		t.Add(backends[i].String(), g.Alone[0].Seconds(), p.Elapsed[0].Seconds(), p.IF[0])
	}
	return t
}
