// Package repro is a simulation-based reproduction of "On the Root Causes
// of Cross-Application I/O Interference in HPC Storage Systems" (Yildiz,
// Dorier, Ibrahim, Ross, Antoniu — IPDPS 2016).
//
// The repository contains a deterministic discrete-event simulator of an
// HPC storage stack — compute nodes, a TCP-like fabric with incast
// dynamics, a PVFS/OrangeFS-like parallel file system, and storage device
// models — plus the paper's δ-graph experiment methodology and one
// regenerable experiment per table and figure. The methodology is
// generalized beyond the paper's two applications: δ-graphs carry N apps
// with per-app start offsets, pairwise interference-factor matrices
// summarize who hurts whom, and a declarative scenario layer
// (internal/scenario, cmd/scenarios) runs named N-app scenarios on HDD and
// SSD. A server-side QoS subsystem (internal/qos) turns every scenario
// into a before/after mitigation experiment: pluggable schedulers —
// deficit-round-robin fair sharing, token-bucket throttling, a feedback
// congestion controller over LASSi-style telemetry — slot between the file
// system's flow layer and the device, and core.RunMitigationSweep (with
// paperrepro -exp mitigate) reports each scheme's interference reduction
// against its aggregate-throughput cost. A trace subsystem
// (internal/trace) records every request — time, app, rank, server,
// offset, bytes, queue depth, latency — through an opt-in zero-allocation
// hook on the file-system client path, summarizes traces Darshan-style,
// and replays them bit-identically (or counterfactually under QoS) as a
// first-class workload source; workload programs (workload.Program)
// extend one-shot bursts into multi-phase temporal workloads — periodic
// barrier-synchronized checkpoints, Poisson-jittered bursty tenants —
// that make such traces worth recording. The replayer and the
// mitigation sweeps are also servable: internal/whatif and cmd/whatifd
// expose them as a long-running what-if daemon (stdlib HTTP/JSON) with
// a content-addressed baseline cache, a bounded session queue with
// explicit backpressure, and responses whose embedded tables are
// byte-identical to the equivalent cmd/scenarios runs (SCENARIOS.md,
// "The what-if HTTP API"). An observability layer (internal/obs)
// watches runs from inside simulated time — a pre-scheduled
// zero-allocation sampler snapshots per-app × per-server telemetry
// into fixed-capacity series and request spans decompose every I/O
// into network, queue-wait and service time — surfaced as
// cmd/scenarios -timeline and, for the daemon, a Prometheus-text
// GET /metrics plus an opt-in expvar/pprof debug listener; observation
// never perturbs results (observed runs are byte-identical to
// unobserved ones). See README.md for a tour,
// DESIGN.md for the system inventory (including the replay determinism
// contract), EXPERIMENTS.md for paper-versus-measured results and
// SCENARIOS.md for the scenario engine, the mitigation Pareto view and
// the phases/trace block reference.
//
// δ-graph campaigns are embarrassingly parallel — every alone baseline,
// δ point and figure series is an independent simulation on its own
// platform — and run on a bounded worker pool (core.Runner, paper.Pool,
// the -j flag of cmd/paperrepro and cmd/deltagraph). Each individual
// simulation is single-threaded and deterministic, so results are
// byte-identical at any parallelism level.
//
// The benchmark suite in bench_test.go regenerates scaled versions of every
// experiment; the cmd/paperrepro tool runs them at paper size.
package repro
