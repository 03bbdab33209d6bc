// Package core is the experiment harness reproducing — and generalizing —
// the paper's methodology: N applications (groups of processes on disjoint
// compute nodes) perform collective I/O phases against a shared parallel
// file system while one parameter of the I/O path is varied. The package
// provides single runs, δ-graphs (the paper's reporting device: the time to
// complete an I/O phase as a function of the delay δ between the leading
// application's burst and the rest, each point an independent experiment),
// per-app completion vectors, pairwise interference-factor matrices
// (RunPairwise), interference and fairness metrics, the local disk-level
// interference experiment of Table I, and tcpdump-like probes for TCP
// window and progress traces.
//
// The paper itself only ever co-runs two applications; TwoAppSpecs builds
// that canonical pair, and a two-app DeltaSpec reproduces the paper's
// figures bit-for-bit. Everything else — DeltaSpec, RunDelta, Runner,
// RunPairwise — takes an arbitrary application list, which is what the
// scenario layer (internal/scenario) drives.
//
// Every simulation is deterministic and self-contained: Prepare builds a
// fresh cluster.Platform with its own event engine, so distinct runs share
// no state. Runner exploits that to execute a δ-graph's baselines and
// points — or many δ-graphs at once — on a bounded worker pool while
// producing byte-identical results to the serial RunDelta path.
package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mpisim"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// AppSpec describes one application of an experiment.
type AppSpec struct {
	// Name labels the application in results ("A", "B").
	Name string
	// Procs is the number of processes.
	Procs int
	// FirstNode and ProcsPerNode place processes: process i runs on
	// compute node FirstNode + i/ProcsPerNode. Applications in the paper
	// occupy disjoint 30-node sets with 16 processes per node.
	FirstNode    int
	ProcsPerNode int
	// Workload is the I/O phase each process performs.
	Workload workload.Spec
	// Program, when non-nil, replaces Workload with a multi-phase workload
	// program (compute think time, barriers, repeated bursts — see
	// workload.Program). The single-burst Workload path is untouched when
	// Program is nil, so legacy experiments stay bit-identical.
	Program *workload.Program
	// TargetServers stripes the application's file over a subset of
	// servers (nil = all servers) — the paper's "targeted servers" knob.
	TargetServers []int
	// Stripe overrides the platform stripe size when positive.
	Stripe int64
	// Start is the absolute burst start time.
	Start sim.Time
}

// Validate checks the spec against a platform configuration.
func (a AppSpec) Validate(cfg cluster.Config) error {
	if a.Procs <= 0 {
		return fmt.Errorf("core: app %q needs procs > 0", a.Name)
	}
	if a.ProcsPerNode <= 0 {
		return fmt.Errorf("core: app %q needs ProcsPerNode > 0", a.Name)
	}
	lastNode := a.FirstNode + (a.Procs-1)/a.ProcsPerNode
	if a.FirstNode < 0 || lastNode >= cfg.ComputeNodes {
		return fmt.Errorf("core: app %q spans nodes %d..%d beyond the %d-node platform",
			a.Name, a.FirstNode, lastNode, cfg.ComputeNodes)
	}
	if a.Program != nil {
		return a.Program.Validate()
	}
	return a.Workload.Validate()
}

// TotalBytes returns the bytes the application moves over its whole phase
// (all processes; for programs, all iterations).
func (a AppSpec) TotalBytes() int64 {
	if a.Program != nil {
		return a.Program.TotalBytes(a.Procs)
	}
	return a.Workload.TotalBytes(a.Procs)
}

// App is an instantiated application within an experiment.
type App struct {
	Spec    AppSpec
	File    *pfs.File
	Clients []*pfs.Client
	Timer   *mpisim.PhaseTimer
	// Barrier is the application-wide rendezvous of program barrier phases
	// (nil for single-burst apps).
	Barrier *mpisim.Barrier
}

// Experiment is a prepared (but not yet run) simulation. Probes may be
// attached between Prepare and Run.
type Experiment struct {
	Platform *cluster.Platform
	Apps     []*App

	obs *obs.Collector
}

// Prepare builds the platform and applications.
func Prepare(cfg cluster.Config, specs []AppSpec) *Experiment {
	pl := cluster.Build(cfg)
	x := &Experiment{Platform: pl}
	for ai, spec := range specs {
		if err := spec.Validate(cfg); err != nil {
			panic(err)
		}
		stripe := spec.Stripe
		if stripe <= 0 {
			stripe = cfg.StripeSize
		}
		app := &App{
			Spec:  spec,
			File:  pl.FS.CreateFile(spec.Name, spec.TargetServers, stripe),
			Timer: mpisim.NewPhaseTimer(pl.E, spec.Procs),
		}
		if spec.Program != nil {
			app.Barrier = mpisim.NewBarrier(spec.Procs)
		}
		for i := 0; i < spec.Procs; i++ {
			node := spec.FirstNode + i/spec.ProcsPerNode
			cl := pl.FS.NewClient(pl.Nodes[node], ai)
			cl.Rank = i
			app.Clients = append(app.Clients, cl)
		}
		x.Apps = append(x.Apps, app)
	}
	return x
}

// Observe attaches the deterministic sim-time observability layer (see
// internal/obs) to a prepared experiment: periodic per-app × per-server
// samples plus request spans, all collected on the engines that own the
// probed state. Call between Prepare and Run; the run's RunResult then
// carries the Timeline. Sampling is read-only — results are byte-identical
// to an unobserved run.
func (x *Experiment) Observe(cfg obs.Config) *obs.Collector {
	x.obs = obs.Attach(x.Platform, len(x.Apps), cfg)
	return x.obs
}

// AttachWindowTrace pre-dials the connection from the given client of the
// given app to the given server of that app's file and attaches a trace —
// the simulator's tcpdump (Figures 10 and 11).
func (x *Experiment) AttachWindowTrace(app, clientIdx, serverPos int) *netsim.Trace {
	a := x.Apps[app]
	srv := a.File.Servers()[serverPos]
	c := a.Clients[clientIdx].ConnTo(srv)
	c.Trace = netsim.NewTrace()
	return c.Trace
}

// launch spawns every process of every application.
func (x *Experiment) launch() {
	e := x.Platform.E
	for _, app := range x.Apps {
		app := app
		for rank := 0; rank < app.Spec.Procs; rank++ {
			rank := rank
			cl := app.Clients[rank]
			e.Spawn(fmt.Sprintf("%s/%d", app.Spec.Name, rank), func(p *sim.Proc) {
				if app.Spec.Start > 0 {
					p.Sleep(app.Spec.Start)
				}
				app.Timer.Enter(p)
				if app.Spec.Program != nil {
					runProgram(p, x.Platform.FS, cl, app, rank)
				} else {
					runBurst(p, cl, app, app.Spec.Workload, rank)
				}
				app.Timer.Done()
			})
		}
	}
}

// runBurst executes one I/O burst — the rank's request plan for wl — with
// the spec's queue depth. It is the whole phase of a single-burst app and
// one PhaseIO step of a program. On a platform with a fault plan the
// client's retrying RPC path is used, and an ErrUnavailable (retries
// exhausted against a crashed or partitioned server) stalls the process
// for the policy's Resume pause before re-issuing the same request —
// stall-and-resume, the way a real MPI job rides out a PFS failover.
func runBurst(p *sim.Proc, cl *pfs.Client, app *App, wl workload.Spec, rank int) {
	plan := wl.Plan(rank, app.Spec.Procs)
	qd := wl.QD
	think := sim.Time(wl.ThinkTime)
	retrying := cl.Retrying()
	if qd <= 1 {
		for _, ext := range plan {
			if think > 0 {
				p.Sleep(think)
			}
			switch {
			case retrying:
				retryBlocking(p, cl, app.File, ext.Off, ext.Size, wl.Read)
			case wl.Read:
				cl.Read(p, app.File, ext.Off, ext.Size)
			default:
				cl.Write(p, app.File, ext.Off, ext.Size)
			}
		}
		return
	}
	e := cl.Host.Egress.E
	sem := sim.NewSemaphore(qd)
	gate := sim.NewGate(len(plan))
	for _, ext := range plan {
		sem.Acquire(p)
		if think > 0 {
			p.Sleep(think)
		}
		if retrying {
			// The pipelined twin of stall-and-resume: hold the queue-depth
			// slot across the stall and re-issue until the request lands.
			ext := ext
			resume := cl.RetryPolicy().Resume
			var issue func()
			onErr := func(err error) {
				if err == nil {
					sem.Release()
					gate.Done(e)
					return
				}
				e.Schedule(resume, issue)
			}
			issue = func() {
				if wl.Read {
					cl.ReadAsyncRetry(app.File, ext.Off, ext.Size, onErr)
				} else {
					cl.WriteAsyncRetry(app.File, ext.Off, ext.Size, onErr)
				}
			}
			issue()
			continue
		}
		done := func() {
			sem.Release()
			gate.Done(e)
		}
		if wl.Read {
			cl.ReadAsync(app.File, ext.Off, ext.Size, done)
		} else {
			cl.WriteAsync(app.File, ext.Off, ext.Size, done)
		}
	}
	gate.Wait(p)
}

// retryBlocking performs one blocking transfer on the retrying path,
// stalling Resume and re-issuing on ErrUnavailable until it succeeds (the
// fault plan's validation guarantees crashed servers restart, so this
// terminates).
func retryBlocking(p *sim.Proc, cl *pfs.Client, f *pfs.File, off, size int64, read bool) {
	resume := cl.RetryPolicy().Resume
	for {
		var err error
		if read {
			err = cl.ReadRetry(p, f, off, size)
		} else {
			err = cl.WriteRetry(p, f, off, size)
		}
		if err == nil {
			return
		}
		p.Sleep(resume)
	}
}

// AppResult is the outcome of one application's I/O phase.
type AppResult struct {
	Name       string
	Start      sim.Time
	End        sim.Time
	Elapsed    sim.Time
	Bytes      int64
	Throughput float64 // bytes per second
}

// Diag aggregates platform-wide diagnostics of a run — the quantities the
// paper uses to explain its results.
type Diag struct {
	PortDrops   int64 // segments tail-dropped at server ports (incast)
	Timeouts    int64 // TCP retransmission timeouts
	RetransSegs int64
	DeviceSeeks int64
	DeviceBytes int64
	CacheBlocks int64 // writes stalled on the dirty limit
	Events      uint64
	Avail       AvailDiag // availability counters (all zero without faults)
}

// AvailDiag aggregates the platform's availability telemetry: server-side
// outage accounting and the client retry layer's counters. Everything is
// zero on a fault-free platform.
type AvailDiag struct {
	Crashes        int64    // fail-stop events across all servers
	Downtime       sim.Time // summed server downtime
	DiscardedBytes int64    // wire bytes servers read and threw away
	LinkDrops      int64    // segments dropped by down links / loss bursts
	RPCTimeouts    int64    // client sub-request deadline expirations
	Retries        int64    // client resends
	Failures       int64    // sub-requests that surfaced ErrUnavailable
	GoodputBytes   int64    // chunk bytes actually stored or returned
	OfferedBytes   int64    // chunk bytes clients pushed at servers
}

// RunResult is the outcome of a single experiment run. Timeline is only
// set when the experiment was Observed (see internal/obs).
type RunResult struct {
	Apps     []AppResult
	Diag     Diag
	Timeline *obs.Timeline `json:",omitempty"`
}

// Run launches all applications, drives the simulation to completion and
// collects results.
func (x *Experiment) Run() RunResult {
	x.launch()
	x.Platform.E.Run()
	return x.collect()
}

func (x *Experiment) collect() RunResult {
	var res RunResult
	for _, app := range x.Apps {
		if !app.Timer.Finished() {
			panic(fmt.Sprintf("core: app %q did not finish (deadlock?)", app.Spec.Name))
		}
		bytes := app.Spec.TotalBytes()
		elapsed := app.Timer.Elapsed()
		res.Apps = append(res.Apps, AppResult{
			Name:       app.Spec.Name,
			Start:      app.Timer.Start(),
			End:        app.Timer.End(),
			Elapsed:    elapsed,
			Bytes:      bytes,
			Throughput: sim.Rate(bytes, elapsed),
		})
	}
	pl := x.Platform
	for _, h := range pl.Fabric.Hosts() {
		res.Diag.PortDrops += h.Stats().PortDrops
	}
	for _, c := range pl.Fabric.Conns() {
		st := c.Stats()
		res.Diag.Timeouts += st.Timeouts
		res.Diag.RetransSegs += st.RetransSegs
	}
	for _, d := range pl.Devices {
		res.Diag.DeviceSeeks += d.Stats().Seeks
		res.Diag.DeviceBytes += d.Stats().Bytes
	}
	for _, c := range pl.Caches {
		if c != nil {
			res.Diag.CacheBlocks += c.BlockedWrites()
		}
	}
	av := &res.Diag.Avail
	for _, s := range pl.Servers {
		a := s.Tel.Avail(s.E.Now())
		av.Crashes += a.Crashes
		av.Downtime += a.Downtime
		av.DiscardedBytes += a.DiscardedBytes
		av.GoodputBytes += s.Tel.GoodputBytes()
		av.OfferedBytes += s.Tel.OfferedBytes()
	}
	av.LinkDrops = pl.Fabric.TotalLinkDrops()
	ca := pl.FS.TotalClientAvail()
	av.RPCTimeouts, av.Retries, av.Failures = ca.Timeouts, ca.Retries, ca.Failures
	res.Diag.Events = pl.E.Executed()
	if x.obs != nil {
		names := make([]string, len(x.Apps))
		for i, app := range x.Apps {
			names[i] = app.Spec.Name
		}
		res.Timeline = x.obs.Timeline(names)
	}
	return res
}

// TwoAppSpecs builds the paper's canonical pair of equal applications: each
// with procs processes at ppn per node, application A on the first half of
// the node range, B on the second half. It is AppSpecs(cfg, 2, ...).
func TwoAppSpecs(cfg cluster.Config, procs, ppn int, wl workload.Spec) []AppSpec {
	return AppSpecs(cfg, 2, procs, ppn, wl)
}

// AppSpecs builds n equal applications of procs processes at ppn per node,
// packed onto consecutive disjoint node ranges and named "A", "B", "C", …
// (then "app26", "app27", … beyond the alphabet). It is the N-app analogue
// of the paper's canonical A/B pair.
func AppSpecs(cfg cluster.Config, n, procs, ppn int, wl workload.Spec) []AppSpec {
	nodesPer := (procs + ppn - 1) / ppn
	out := make([]AppSpec, n)
	for i := 0; i < n; i++ {
		out[i] = AppSpec{
			Name:         AppName(i),
			Procs:        procs,
			FirstNode:    i * nodesPer,
			ProcsPerNode: ppn,
			Workload:     wl,
		}
	}
	return out
}

// AppName returns the conventional name of application i: "A".."Z", then
// "app26", "app27", …
func AppName(i int) string {
	if i >= 0 && i < 26 {
		return string(rune('A' + i))
	}
	return fmt.Sprintf("app%d", i)
}
