package main

// metricSpec names one metric, its unit and which direction is better.
// bound is the share of the parent's median by which an end-to-end metric
// may worsen before a change counts as a regression. BENCHMARK.json lists
// the same metrics; TestMetricListsMatchBenchmarkJSON keeps the two equal.
type metricSpec struct {
	name, unit, better string
	bound              float64
}

// endToEndMetrics are reported by --trace 0 on every workload, each as the
// median over the run's repetitions.
var endToEndMetrics = []metricSpec{
	{"wall_s", "s", "lower", 0.24},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
	{"allocs_k", "k", "lower", 0.05},
	{"peak_heap_mb", "MB", "lower", 0.15},
}

// perLayerMetrics are reported by --trace 1 on every workload; a layer a
// workload bypasses reads 0. Counts are per repetition and exact for a
// seed; times are medians over the untraced repetitions; self shares come
// from the traced repetitions' CPU profile.
var perLayerMetrics = []metricSpec{
	{"sim.events", "count", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.events_per_s", "events/s", "higher", 0},
	{"sim.pending_at_start", "count", "lower", 0},
	{"sim.procs", "count", "lower", 0},
	{"sim.self_share", "ratio", "lower", 0},

	{"core.sims", "count", "lower", 0},
	{"core.prepare_ms", "ms", "lower", 0},
	{"core.run_ms_p50", "ms", "lower", 0},
	{"core.run_ms_max", "ms", "lower", 0},
	{"core.self_share", "ratio", "lower", 0},

	{"netsim.segs_sent", "count", "lower", 0},
	{"netsim.retrans_segs", "count", "lower", 0},
	{"netsim.timeouts", "count", "lower", 0},
	{"netsim.port_drops", "count", "lower", 0},
	{"netsim.useful_ratio", "ratio", "higher", 0},
	{"netsim.self_share", "ratio", "lower", 0},

	{"pfs.goodput_ratio", "ratio", "higher", 0},
	{"pfs.net_s", "s", "lower", 0},
	{"pfs.queue_s", "s", "lower", 0},
	{"pfs.service_s", "s", "lower", 0},
	{"pfs.self_share", "ratio", "lower", 0},

	{"storage.ops", "count", "lower", 0},
	{"storage.bytes", "bytes", "lower", 0},
	{"storage.seeks", "count", "lower", 0},
	{"storage.busy_s", "s", "lower", 0},
	{"storage.utilization", "ratio", "higher", 0},
	{"storage.self_share", "ratio", "lower", 0},

	{"qos.arm_runs", "count", "lower", 0},
	{"qos.self_share", "ratio", "lower", 0},

	{"obs.samples", "count", "lower", 0},
	{"obs.spans", "count", "lower", 0},
	{"obs.spans_dropped", "count", "lower", 0},
	{"obs.export_ms", "ms", "lower", 0},
	{"obs.overhead_ratio", "ratio", "lower", 0},
	{"obs.self_share", "ratio", "lower", 0},

	{"trace.records", "count", "lower", 0},
	{"trace.bytes", "bytes", "lower", 0},
	{"trace.encode_ms", "ms", "lower", 0},
	{"trace.decode_ms", "ms", "lower", 0},
	{"trace.replay_ms", "ms", "lower", 0},
	{"trace.record_overhead_ratio", "ratio", "lower", 0},
	{"trace.self_share", "ratio", "lower", 0},

	{"scenario.build_ms", "ms", "lower", 0},
	{"population.expand_ms", "ms", "lower", 0},
	{"scenario.self_share", "ratio", "lower", 0},

	{"whatif.sessions", "count", "higher", 0},
	{"whatif.cache_hits", "count", "higher", 0},
	{"whatif.cache_misses", "count", "lower", 0},
	{"whatif.hit_ratio", "ratio", "higher", 0},
	{"whatif.evictions", "count", "lower", 0},
	{"whatif.rejected", "count", "lower", 0},
	{"whatif.queue_depth_max", "count", "lower", 0},
	{"whatif.miss_p50_ms", "ms", "lower", 0},
	{"whatif.miss_tail_ms", "ms", "lower", 0},
	{"whatif.miss_tail_pct", "%", "higher", 0},
	{"whatif.miss_samples", "count", "higher", 0},
	{"whatif.hit_p50_ms", "ms", "lower", 0},
	{"whatif.hit_tail_ms", "ms", "lower", 0},
	{"whatif.hit_tail_pct", "%", "higher", 0},
	{"whatif.hit_samples", "count", "higher", 0},
	{"whatif.trace_p50_ms", "ms", "lower", 0},
	{"whatif.trace_tail_ms", "ms", "lower", 0},
	{"whatif.trace_tail_pct", "%", "higher", 0},
	{"whatif.trace_samples", "count", "higher", 0},
	{"whatif.self_share", "ratio", "lower", 0},

	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.self_share", "ratio", "lower", 0},

	{"model.fig2_if0_hdd", "IF", "lower", 0},
	{"model.fig2_if0_ssd", "IF", "lower", 0},
	{"model.fig2_if0_ram", "IF", "lower", 0},
	{"model.fleet_p50_if", "IF", "lower", 0},
	{"model.fleet_p95_if", "IF", "lower", 0},

	{"bench.self_share", "ratio", "lower", 0},
	{"bench.tracing_overhead_s", "s", "lower", 0},
}
