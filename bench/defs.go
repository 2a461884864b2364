package main

// The metric tables: every name the benchmark reports, with its unit,
// direction and — for end-to-end metrics — the share by which it may
// worsen before a change counts as a regression. BENCHMARK.json
// repeats them for the pipeline; a self-test keeps the two equal.

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end metrics only
}

// endToEndDefs is what a user of the system sees, defined on every
// workload. error_rate is not among them: it must be 0, which no
// relative bound can express, so it is the `failed`/`attempted`/
// `correct` part of the result and any failed operation fails the run.
// The time bounds are what the reference host allows: host-corrected,
// ten runs still spread 3–10 % (inter-quartile, of the median), and a
// bound has to clear that spread or it rejects noise.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"allocs_per_query", "count", "lower", 0.03},
	{"alloc_kb_per_query", "KiB", "lower", 0.02},
	{"result_rows_per_s", "1/s", "higher", 0.25},
}

// layerDefs is one metric per thing a layer does, named
// <layer>.<metric>. A metric is 0 on a workload that asks nothing of
// its layer. They carry no bound: they explain an end-to-end move.
var layerDefs = []metricDef{
	// hierdb (facade), timed around the live query
	{name: "hierdb.run_call_ms", unit: "ms", better: "lower"},
	{name: "hierdb.explain_us", unit: "us", better: "lower"},
	{name: "hierdb.admission_wait_p50_ms", unit: "ms", better: "lower"},
	{name: "hierdb.admission_wait_p95_ms", unit: "ms", better: "lower"},
	{name: "hierdb.rejected_share", unit: "share", better: "lower"},
	{name: "hierdb.first_row_ms", unit: "ms", better: "lower"},
	{name: "hierdb.drain_ms", unit: "ms", better: "lower"},
	{name: "hierdb.row_box_ns_per_row", unit: "ns", better: "lower"},
	{name: "hierdb.register_ms", unit: "ms", better: "lower"},
	{name: "hierdb.analyze_ms", unit: "ms", better: "lower"},
	// exec, from EngineStats
	{name: "exec.activations_per_query", unit: "count", better: "lower"},
	{name: "exec.worker_imbalance", unit: "ratio", better: "lower"},
	{name: "exec.intermediate_rows_per_query", unit: "count", better: "lower"},
	{name: "exec.steal_rounds_per_query", unit: "count", better: "lower"},
	{name: "exec.steals_per_query", unit: "count", better: "higher"},
	{name: "exec.steal_success_ratio", unit: "ratio", better: "higher"},
	{name: "exec.stolen_activations_per_query", unit: "count", better: "higher"},
	{name: "exec.stolen_bucket_kb_per_query", unit: "KiB", better: "lower"},
	{name: "exec.rows_redistributed_per_query", unit: "count", better: "lower"},
	{name: "exec.spilled_kb_per_query", unit: "KiB", better: "lower"},
	{name: "exec.spilled_partitions_per_query", unit: "count", better: "lower"},
	{name: "exec.spill_phases_per_query", unit: "count", better: "lower"},
	{name: "exec.spill_write_amp", unit: "ratio", better: "lower"},
	// exec, in-run ratios (§5.1.3): diagnostics, not gates
	{name: "exec.speedup_workers", unit: "ratio", better: "higher"},
	{name: "exec.steal_gain", unit: "ratio", better: "higher"},
	{name: "exec.spill_over_inmem", unit: "ratio", better: "lower"},
	{name: "exec.disk_over_resident", unit: "ratio", better: "lower"},
	// store, replayed
	{name: "store.chunks_scanned_per_query", unit: "count", better: "lower"},
	{name: "store.chunks_skipped_ratio", unit: "ratio", better: "higher"},
	{name: "store.disk_kb_per_query", unit: "KiB", better: "lower"},
	{name: "store.read_chunk_us", unit: "us", better: "lower"},
	{name: "store.decode_MBps", unit: "MB/s", better: "higher"},
	{name: "store.decode_allocs_per_row", unit: "count", better: "lower"},
	{name: "store.skippable_ns_per_chunk", unit: "ns", better: "lower"},
	{name: "store.open_us", unit: "us", better: "lower"},
	{name: "store.write_MBps", unit: "MB/s", better: "higher"},
	{name: "store.bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "store.query_share", unit: "share", better: "lower"},
	// spill, replayed
	{name: "spill.encode_MBps", unit: "MB/s", better: "higher"},
	{name: "spill.decode_MBps", unit: "MB/s", better: "higher"},
	{name: "spill.file_roundtrip_MBps", unit: "MB/s", better: "higher"},
	{name: "spill.bytes_per_row", unit: "B", better: "lower"},
	{name: "spill.encode_allocs_per_row", unit: "count", better: "lower"},
	{name: "spill.decode_allocs_per_row", unit: "count", better: "lower"},
	{name: "spill.query_share", unit: "share", better: "lower"},
	// vec, replayed
	{name: "vec.from_rows_ns_per_row", unit: "ns", better: "lower"},
	{name: "vec.filter_ns_per_row", unit: "ns", better: "lower"},
	{name: "vec.select_ns_per_row", unit: "ns", better: "lower"},
	{name: "vec.gather_ns_per_row", unit: "ns", better: "lower"},
	{name: "vec.read_row_ns", unit: "ns", better: "lower"},
	{name: "vec.append_rows_ns_per_row", unit: "ns", better: "lower"},
	{name: "vec.read_row_allocs_per_row", unit: "count", better: "lower"},
	// simulation, from metrics.Run (bit-exact except the two timings)
	{name: "core.virtual_rt_s", unit: "s", better: "lower"},
	{name: "core.idle_share", unit: "share", better: "lower"},
	{name: "core.queue_ops_per_run", unit: "count", better: "lower"},
	{name: "core.steal_success_ratio", unit: "ratio", better: "higher"},
	{name: "simnet.balance_kb_per_run", unit: "KiB", better: "lower"},
	{name: "simnet.pipeline_kb_per_run", unit: "KiB", better: "lower"},
	{name: "core.dp_over_fp_rt", unit: "ratio", better: "lower"},
	{name: "core.wall_ms_per_virtual_s", unit: "ms", better: "lower"},
	{name: "optimizer.plans_us", unit: "us", better: "lower"},
	// the benchmark itself
	{name: "client.samples", unit: "count", better: "higher"},
	{name: "client.latency_p99_ms", unit: "ms", better: "lower"},
	{name: "client.verify_share", unit: "share", better: "lower"},
	{name: "client.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "host.slowdown", unit: "ratio", better: "lower"},
	{name: "host.nproc", unit: "count", better: "higher"},
}
