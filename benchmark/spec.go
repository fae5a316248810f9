package main

// The metrics the benchmark prints. BENCHMARK.json at the repository root
// declares the same names, units and directions (spec_test.go holds the two
// together); README.md says which end-to-end metric each layer metric
// should move, on which workload.

// metric is one declared measurement.
type metric struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	bound float64
}

// endToEnd are what a user of the system sees, reported per workload from
// the untraced run.
var endToEnd = []metric{
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p90_ms", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_query", "MB", "lower", 0.10},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are single-layer measurements from the traced run.
var perLayer = []metric{
	{name: "sql.lex_us", unit: "us", better: "lower"},
	{name: "sql.parse_us", unit: "us", better: "lower"},
	{name: "sql.canon_us", unit: "us", better: "lower"},
	{name: "sql.parse_allocs", unit: "count", better: "lower"},

	{name: "core.bind_us", unit: "us", better: "lower"},
	{name: "core.optimize_us", unit: "us", better: "lower"},
	{name: "core.testfd_us", unit: "us", better: "lower"},
	{name: "core.plan_cache_get_us", unit: "us", better: "lower"},
	{name: "core.plan_cache_hit_share", unit: "ratio", better: "higher"},
	{name: "core.eager_chosen_share", unit: "ratio", better: "higher"},
	{name: "core.plan_regret", unit: "ratio", better: "lower"},
	{name: "core.choice_correct_share", unit: "ratio", better: "higher"},

	{name: "plancheck.recertify_us", unit: "us", better: "lower"},

	{name: "storage.snapshot_us", unit: "us", better: "lower"},
	{name: "storage.insert_us", unit: "us", better: "lower"},
	{name: "storage.columnar_build_ms", unit: "ms", better: "lower"},
	{name: "storage.load_rows_per_s", unit: "1/s", better: "higher"},

	{name: "exec.run_ms", unit: "ms", better: "lower"},
	{name: "exec.rows_per_s", unit: "1/s", better: "higher"},
	{name: "exec.allocs_per_run", unit: "count", better: "lower"},
	{name: "exec.scan_self_ms", unit: "ms", better: "lower"},
	{name: "exec.filter_self_ms", unit: "ms", better: "lower"},
	{name: "exec.join_self_ms", unit: "ms", better: "lower"},
	{name: "exec.group_self_ms", unit: "ms", better: "lower"},
	{name: "exec.sort_self_ms", unit: "ms", better: "lower"},
	{name: "exec.project_self_ms", unit: "ms", better: "lower"},
	{name: "exec.join_input_rows", unit: "count", better: "lower"},
	{name: "exec.group_input_rows", unit: "count", better: "lower"},
	{name: "exec.state_kb", unit: "KB", better: "lower"},
	{name: "exec.pool_lease_us", unit: "us", better: "lower"},
	{name: "exec.metrics_overhead_share", unit: "ratio", better: "lower"},

	{name: "vec.key_encode_ns_per_row", unit: "ns", better: "lower"},
	{name: "vec.batches_per_query", unit: "count", better: "lower"},

	{name: "dist.compile_us", unit: "us", better: "lower"},
	{name: "dist.run_ms", unit: "ms", better: "lower"},
	{name: "dist.cluster_build_ms", unit: "ms", better: "lower"},
	{name: "dist.comm_kb_per_query", unit: "KB", better: "lower"},
	{name: "dist.eager_ship_share", unit: "ratio", better: "higher"},

	{name: "server.handler_overhead_us", unit: "us", better: "lower"},
	{name: "server.wire_overhead_us", unit: "us", better: "lower"},
	{name: "server.encode_ms_per_krow", unit: "ms", better: "lower"},
	{name: "server.bytes_per_response", unit: "B", better: "lower"},
	{name: "server.degraded_share", unit: "ratio", better: "lower"},
	{name: "server.rejected_share", unit: "ratio", better: "lower"},

	{name: "gbj.query_ms", unit: "ms", better: "lower"},
	{name: "gbj.convert_us", unit: "us", better: "lower"},
	{name: "gbj.glue_us", unit: "us", better: "lower"},
	{name: "gbj.fallbacks", unit: "count", better: "lower"},

	{name: "trace.coverage", unit: "ratio", better: "higher"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
	{name: "trace.ops", unit: "count", better: "higher"},
	// The layer times above are as measured; the end-to-end timings are at
	// nominal speed. This is the yardstick's slowdown over the traced run's
	// untraced window: divide a layer time by it before holding it against
	// query_p50_ms.
	{name: "trace.yardstick_slowdown", unit: "ratio", better: "lower"},

	// Two of the issue's end-to-end metrics live here because the driver's
	// contract wants end-to-end metrics that are numbers on every workload
	// and never 0: write latency exists on serve_mixed only, and the
	// failed share is 0 on a correct engine (the output line's `failed`
	// and `attempted` carry it for the untraced run).
	{name: "write_p50_ms", unit: "ms", better: "lower"},
	{name: "failed_share", unit: "ratio", better: "lower"},
}
