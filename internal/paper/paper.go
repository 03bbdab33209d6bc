// Package paper defines one experiment per table and figure of the paper,
// parameterized by a scale divisor so that tests and benchmarks can run
// shrunken versions while `paperrepro` regenerates the full-size campaign.
//
// Scaling divides node, process and server counts together, preserving the
// processes-per-server ratio; per-process bytes stay at the paper's 64 MB,
// so per-server load, completion times and δ grids remain comparable to the
// paper at any scale. What shrinks is the fan-in (connections per server),
// so incast effects soften as the scale divisor grows — shape, not absolute
// onset, is preserved.
//
// Concurrency: every figure driver fans its work out on Pool, a
// core.Runner shared by the whole package. A figure's series, their alone
// baselines and their δ points are all independent simulations (each on a
// fresh platform with its own engine), so they execute as one flattened
// task set on the pool's workers. Results are deterministic and identical
// to the serial path at any Pool.Parallelism — see core.Runner for the
// guarantee.
package paper

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BlockBytes is the paper's per-process write volume.
const BlockBytes = 64 << 20

// Config returns the paper platform scaled down by div (>= 1).
func Config(div int) cluster.Config {
	cfg := cluster.Default()
	if div > 1 {
		cfg.ComputeNodes = maxInt(2, cfg.ComputeNodes/div)
		cfg.Servers = maxInt(2, cfg.Servers/div)
	}
	return cfg
}

// ProcsPerApp returns the per-application process count for a config: half
// the nodes, all cores (the paper's 480 = 30 nodes x 16 cores).
func ProcsPerApp(cfg cluster.Config) int {
	return cfg.ComputeNodes / 2 * cfg.CoresPerNode
}

// ContigSpec is the paper's contiguous workload (one 64 MB request per
// process at offset rank*64MB).
func ContigSpec() workload.Spec {
	return workload.Spec{Pattern: workload.Contiguous, BlockBytes: BlockBytes}
}

// StridedSpec is the paper's strided workload: 256 requests of 256 KB.
func StridedSpec(transfer int64) workload.Spec {
	return workload.Spec{
		Pattern:      workload.Strided,
		BlockBytes:   BlockBytes,
		TransferSize: transfer,
		QD:           1,
		ThinkTime:    int64(25 * sim.Millisecond),
	}
}

// Series is a labeled δ-graph, one curve of a figure.
type Series struct {
	Label string
	Graph *core.DeltaGraph
}

// Pool is the worker pool every figure driver shares. Each figure builds
// all of its series' δ-graph specs up front and hands them to the pool as
// one flattened task set (every alone baseline and every δ point of every
// series is an independent simulation), so a figure with only two series
// still keeps all workers busy. The zero value uses GOMAXPROCS workers;
// set Parallelism to 1 to force the serial reference path. Results are
// identical at any setting — see core.Runner.
var Pool core.Runner

// seriesSpec pairs a curve label with a fully-built δ-graph spec.
type seriesSpec struct {
	Label string
	Spec  core.DeltaSpec
}

// twoApps builds the canonical A/B pair for cfg.
func twoApps(cfg cluster.Config, wl workload.Spec) []core.AppSpec {
	return core.TwoAppSpecs(cfg, ProcsPerApp(cfg), cfg.CoresPerNode, wl)
}

// series builds one labeled spec for a figure's task set.
func series(label string, cfg cluster.Config, apps []core.AppSpec, deltas []sim.Time) seriesSpec {
	return seriesSpec{Label: label, Spec: core.DeltaSpec{Cfg: cfg, Apps: apps, Deltas: deltas}}
}

// runAll executes every series on Pool, preserving series order.
func runAll(specs []seriesSpec) []Series {
	ds := make([]core.DeltaSpec, len(specs))
	for i := range specs {
		ds[i] = specs[i].Spec
	}
	graphs := Pool.RunDeltas(ds)
	out := make([]Series, len(specs))
	for i := range specs {
		out[i] = Series{Label: specs[i].Label, Graph: graphs[i]}
	}
	return out
}

// GridKind selects δ-grid density.
type GridKind int

// Grid densities.
const (
	GridFull   GridKind = iota // the paper's grids
	GridCoarse                 // 5 points, for benches and tests
)

// grid returns a δ grid spanning ±span seconds.
func grid(kind GridKind, span float64) []sim.Time {
	if kind == GridCoarse {
		return core.Deltas(span/2, span)
	}
	return core.Deltas(span/4, span/2, 3*span/4, span)
}

// --- Table I ------------------------------------------------------------

// Table1 reruns the local, network-free interference experiment: one client
// writing 2 GB contiguously, alone and against a second identical client.
func Table1() []core.LocalResult {
	return core.RunLocal(cluster.Default(), core.DefaultLocalParams(),
		[]cluster.BackendKind{cluster.HDD, cluster.SSD, cluster.RAM}, 2<<30)
}

// --- Figure 2: backend device, contiguous pattern ------------------------

// Fig2 runs the contiguous two-application experiment for each backend.
// With sync on the paper's devices are disk, SSD and RAM (a,b); with sync
// off null-aio joins (c,d).
func Fig2(div int, syncOn bool, kind GridKind) []Series {
	backends := []cluster.BackendKind{cluster.HDD, cluster.SSD, cluster.RAM}
	span := 40.0
	if !syncOn {
		backends = append(backends, cluster.Null)
		span = 10.0
	}
	var specs []seriesSpec
	for _, b := range backends {
		cfg := Config(div)
		cfg.Backend = b
		cfg.Sync = pfs.SyncOn
		if !syncOn {
			cfg.Sync = pfs.SyncOff
			if b == cluster.Null {
				cfg.Sync = pfs.NullAIO
			}
		}
		specs = append(specs, series(b.String(), cfg, twoApps(cfg, ContigSpec()), grid(kind, span)))
	}
	return runAll(specs)
}

// --- Figure 3: backend device, strided pattern ---------------------------

// Fig3 runs the strided experiment per backend. HDD with sync on lives on a
// much longer δ span (the paper plots it separately for that reason).
func Fig3(div int, syncOn bool, kind GridKind) []Series {
	var specs []seriesSpec
	for _, b := range []cluster.BackendKind{cluster.HDD, cluster.SSD, cluster.RAM} {
		cfg := Config(div)
		cfg.Backend = b
		cfg.Sync = pfs.SyncOn
		span := 40.0
		if b == cluster.HDD {
			span = 600.0
		}
		if !syncOn {
			cfg.Sync = pfs.SyncOff
			span = 60.0
		}
		specs = append(specs, series(b.String(), cfg, twoApps(cfg, StridedSpec(256<<10)), grid(kind, span)))
	}
	return runAll(specs)
}

// --- Figure 4: network interface (writers per node) ----------------------

// Fig4 compares all cores writing (16 clients/node, 64 MB each) against one
// core per node writing the same node-total (16 x 64 MB).
func Fig4(div int, kind GridKind) []Series {
	var specs []seriesSpec
	// 16 clients per node.
	cfg := Config(div)
	specs = append(specs, series("16 clients per node", cfg,
		twoApps(cfg, ContigSpec()), grid(kind, 60)))
	// 1 client per node writing CoresPerNode*64MB.
	cfg1 := Config(div)
	wl := ContigSpec()
	wl.BlockBytes = BlockBytes * int64(cfg1.CoresPerNode)
	apps := core.TwoAppSpecs(cfg1, cfg1.ComputeNodes/2, 1, wl)
	specs = append(specs, series("1 client per node", cfg1, apps, grid(kind, 60)))
	return runAll(specs)
}

// --- Figure 5: network bandwidth ------------------------------------------

// Fig5 compares 10 G and 1 G client NICs, contiguous pattern.
func Fig5(div int, syncOn bool, kind GridKind) []Series {
	span := 60.0
	if !syncOn {
		span = 15.0
	}
	var specs []seriesSpec
	for _, bw := range []struct {
		label string
		rate  float64
	}{{"10G Ethernet", cluster.GbE10}, {"1G Ethernet", cluster.GbE1}} {
		cfg := Config(div)
		cfg.ClientNIC = bw.rate
		if !syncOn {
			cfg.Sync = pfs.SyncOff
		}
		specs = append(specs, series(bw.label, cfg, twoApps(cfg, ContigSpec()), grid(kind, span)))
	}
	return runAll(specs)
}

// --- Figure 6 + Table II: number of storage servers ----------------------

// ScalePoint is one x of Figure 6(a): max (alone) and min (contended)
// throughput for a server count.
type ScalePoint struct {
	Servers int
	MaxBps  float64
	MinBps  float64
	PeakIF  float64 // Table II
}

// Fig6 sweeps the number of servers with sync off. It returns the scaling
// curve (a, plus Table II) and the δ-graph per server count (b).
func Fig6(div int, serverCounts []int, kind GridKind) ([]ScalePoint, []Series) {
	var specs []seriesSpec
	for _, s := range serverCounts {
		cfg := Config(div)
		cfg.Servers = maxInt(2, s/maxInt(1, div))
		cfg.Sync = pfs.SyncOff
		wl := ContigSpec()
		if s <= 4 {
			wl.BlockBytes = BlockBytes / 2 // the paper writes 32 MB at 4 servers
		}
		specs = append(specs, series(labelServers(cfg.Servers), cfg, twoApps(cfg, wl), grid(kind, 10)))
	}
	out := runAll(specs)
	var points []ScalePoint
	for i, sr := range out {
		cfg := specs[i].Spec.Cfg
		bytes := specs[i].Spec.Apps[0].TotalBytes()
		pt := ScalePoint{
			Servers: cfg.Servers,
			MaxBps:  sim.Rate(bytes, minTime(sr.Graph.Alone[0], sr.Graph.Alone[1])),
			PeakIF:  sr.Graph.PeakIF(),
		}
		if p := sr.Graph.At(0); p != nil {
			pt.MinBps = minFloat(p.Throughput[0], p.Throughput[1])
		}
		points = append(points, pt)
	}
	return points, out
}

// --- Figure 7: targeted servers -------------------------------------------

// Fig7 compares both applications striping over all 12 servers against each
// application targeting a disjoint half ("6+6").
func Fig7(div int, backend cluster.BackendKind, kind GridKind) []Series {
	span := 60.0
	if backend == cluster.RAM {
		span = 15.0
	}
	cfg := Config(div)
	cfg.Backend = backend
	if cfg.Servers%2 != 0 {
		cfg.Servers++ // the 6+6 split needs an even server count
	}
	shared := twoApps(cfg, ContigSpec())
	specs := []seriesSpec{series(labelServers(cfg.Servers)+" shared", cfg, shared, grid(kind, span))}

	split := twoApps(cfg, ContigSpec())
	half := cfg.Servers / 2
	split[0].TargetServers = rangeInts(0, half)
	split[1].TargetServers = rangeInts(half, cfg.Servers)
	specs = append(specs, series(labelSplit(half, cfg.Servers-half), cfg, split, grid(kind, span)))
	return runAll(specs)
}

// --- Figure 8: stripe size -------------------------------------------------

// Fig8 sweeps the file-system stripe size under the strided workload.
func Fig8(div int, syncOn bool, stripes []int64, kind GridKind) []Series {
	span := 600.0
	if !syncOn {
		span = 40.0
	}
	var specs []seriesSpec
	for _, st := range stripes {
		cfg := Config(div)
		if !syncOn {
			cfg.Sync = pfs.SyncOff
		}
		cfg.StripeSize = st
		specs = append(specs, series(sim.FormatBytes(st), cfg,
			twoApps(cfg, StridedSpec(256<<10)), grid(kind, span)))
	}
	return runAll(specs)
}

// --- Figure 9: request (block) size ----------------------------------------

// Fig9 sweeps the application request size under the strided workload with
// the default 64 KiB stripe.
func Fig9(div int, syncOn bool, blocks []int64, kind GridKind) []Series {
	span := 600.0
	if !syncOn {
		span = 60.0
	}
	var specs []seriesSpec
	for _, b := range blocks {
		cfg := Config(div)
		if !syncOn {
			cfg.Sync = pfs.SyncOff
		}
		specs = append(specs, series(sim.FormatBytes(b), cfg,
			twoApps(cfg, StridedSpec(b)), grid(kind, span)))
	}
	return runAll(specs)
}

// --- Figures 10 & 11: TCP window probes -------------------------------------

// Fig10 traces the TCP window of one client->server connection during the
// contiguous HDD sync-on experiment, alone and under δ=0 contention.
func Fig10(div int) (alone, contended *netsim.Trace) {
	cfg := Config(div)
	apps := twoApps(cfg, ContigSpec())

	// The independent and the interfering run are themselves independent
	// simulations, so they too go through the pool.
	var traces [2]*netsim.Trace
	Pool.ForEach(2, func(i int) {
		specs := []core.AppSpec{apps[0], apps[1]}[:i+1]
		x := core.Prepare(cfg, specs)
		traces[i] = x.AttachWindowTrace(0, 0, 0)
		x.Run()
	})
	return traces[0], traces[1]
}

// Fig11Result carries window+progress traces for both applications with
// the second delayed by 10 s.
type Fig11Result struct {
	TraceA, TraceB *netsim.Trace
	TotalA, TotalB int64 // per-connection bytes, for progress normalization
	End            sim.Time
}

// Fig11 reruns Figure 2(a)'s δ=+10s point with window probes on one client
// of each application.
func Fig11(div int) Fig11Result {
	cfg := Config(div)
	apps := twoApps(cfg, ContigSpec())
	apps[0].Start = 0
	apps[1].Start = 10 * sim.Second
	x := core.Prepare(cfg, []core.AppSpec{apps[0], apps[1]})
	ta := x.AttachWindowTrace(0, 0, 0)
	tb := x.AttachWindowTrace(1, 0, 0)
	x.Run()
	perConn := BlockBytes / int64(cfg.Servers) // bytes one client sends one server
	return Fig11Result{
		TraceA: ta, TraceB: tb,
		TotalA: perConn, TotalB: perConn,
		End: x.Platform.E.Now(),
	}
}

// --- Figure 12: client count sweep ------------------------------------------

// Fig12 sweeps the total number of clients (both applications combined),
// contiguous pattern on HDDs with sync on — the incast onset experiment.
func Fig12(div int, totals []int, kind GridKind) []Series {
	var specs []seriesSpec
	for _, total := range totals {
		cfg := Config(div)
		per := total / maxInt(1, div) / 2
		if per < 1 {
			per = 1
		}
		if cap := ProcsPerApp(cfg); per > cap {
			per = cap // platform capacity after scaling
		}
		ppn := cfg.CoresPerNode
		// Fewer clients occupy fewer nodes at full density, like the paper.
		apps := core.TwoAppSpecs(cfg, per, ppn, ContigSpec())
		specs = append(specs, series(labelClients(2*per), cfg, apps, grid(kind, 60)))
	}
	return runAll(specs)
}

// --- helpers -----------------------------------------------------------------

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minTime(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func rangeInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

func labelServers(n int) string { return itoa(n) + " PVFS servers" }
func labelSplit(a, b int) string {
	return itoa(a) + "+" + itoa(b) + " PVFS servers"
}
func labelClients(n int) string { return itoa(n) + " clients" }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
