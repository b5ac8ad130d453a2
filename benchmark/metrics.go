package main

// metricDef is one declared metric. BENCHMARK.json at the repo root
// repeats this table for the driver; metrics_test.go holds the two in
// step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd are the metrics a user of the checker sees, the same on
// every workload. A claim names one metric and one workload.
var endToEnd = []metricDef{
	{"result_s", "s", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.15},
	{"alloc_mib_per_op", "MiB/op", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics; layer = the prefix before the
// dot = the internal package the time or count belongs to. A workload
// that bypasses a layer reports 0 for it, which is the "must not move"
// half of the interaction table in README.md.
var perLayer = []metricDef{
	{"scanner.scan_busy_s", "s", "lower", 0},
	{"scanner.scan_max_s", "s", "lower", 0},
	{"scanner.inodes", "count", "lower", 0},
	{"scanner.ns_per_inode", "ns", "lower", 0},
	{"scanner.chunks", "count", "lower", 0},
	{"scanner.alloc_mib", "MiB", "lower", 0},

	{"wire.ship_s", "s", "lower", 0},
	{"wire.frames", "count", "lower", 0},
	{"wire.bytes", "B", "lower", 0},
	{"wire.mib_per_s", "MiB/s", "higher", 0},
	{"wire.dial_retries", "count", "lower", 0},
	{"wire.stream_errors", "count", "lower", 0},
	{"wire.alloc_mib", "MiB", "lower", 0},
	{"wire.rank_bytes_per_superstep", "B", "lower", 0},

	{"agg.intake_s", "s", "lower", 0},
	{"agg.merge_s", "s", "lower", 0},
	{"agg.vertices", "count", "lower", 0},
	{"agg.edges", "count", "lower", 0},
	{"agg.ns_per_edge", "ns", "lower", 0},
	{"agg.alloc_mib", "MiB", "lower", 0},
	{"agg.materialize_s", "s", "lower", 0},
	{"agg.dirty_seeds", "count", "lower", 0},

	{"graph.build_s", "s", "lower", 0},
	{"graph.ns_per_edge", "ns", "lower", 0},
	{"graph.bytes_computed", "B", "lower", 0},
	{"graph.unpaired_edges", "count", "lower", 0},
	{"graph.alloc_mib", "MiB", "lower", 0},

	{"core.iterate_s", "s", "lower", 0},
	{"core.iterations", "count", "lower", 0},
	{"core.ns_per_edge_iter", "ns", "lower", 0},
	{"core.detect_s", "s", "lower", 0},
	{"core.suspects", "count", "lower", 0},
	{"core.alloc_mib", "MiB", "lower", 0},
	{"core.serial_iterate_s", "s", "lower", 0},
	{"core.parallel_speedup", "ratio", "higher", 0},
	{"core.incr_s", "s", "lower", 0},
	{"core.frontier_touched", "count", "lower", 0},
	{"core.frontier_full_sweeps", "count", "lower", 0},
	{"core.touched_per_seed", "ratio", "lower", 0},
	{"core.partition_k2_iterate_s", "s", "lower", 0},

	{"checker.analyze_self_s", "s", "lower", 0},
	{"checker.overlap_gain_s", "s", "higher", 0},
	{"checker.tscan_s", "s", "lower", 0},
	{"checker.tgraph_s", "s", "lower", 0},
	{"checker.trank_s", "s", "lower", 0},
	{"checker.findings", "count", "lower", 0},
	{"checker.identified", "count", "higher", 0},
	{"checker.false_positives", "count", "lower", 0},
	{"checker.result_median_s", "s", "lower", 0},
	{"checker.result_tail_s", "s", "lower", 0},
	{"checker.result_tail_pct", "%", "higher", 0},
	{"checker.gc_cycles_per_op", "count", "lower", 0},
	{"checker.trace_overhead_share", "ratio", "lower", 0},

	{"repair.apply_s", "s", "lower", 0},
	{"repair.applied", "count", "higher", 0},
	{"repair.skipped", "count", "lower", 0},
	{"repair.ns_per_action", "ns", "lower", 0},
	{"repair.verify_s", "s", "lower", 0},
	{"repair.residual_findings", "count", "lower", 0},

	{"online.update_s", "s", "lower", 0},
	{"online.refreshed_inodes", "count", "lower", 0},
	{"online.accounted_s", "s", "lower", 0},
	{"online.unaccounted_s", "s", "lower", 0},
	{"online.warm_fallbacks", "count", "lower", 0},
	{"online.mutate_s", "s", "lower", 0},
	{"online.cold_ratio", "ratio", "higher", 0},

	{"lustre.setup_inodes_per_s", "1/s", "higher", 0},
}

// workloadNames is the fixed run order; later issues cite these names.
var workloadNames = []string{"cold_check_tcp", "rank_rmat", "online_delta", "fault_repair"}
