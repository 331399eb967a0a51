package main

// metricDef names one reported metric. The catalogue below is the single
// list the program reports from; BENCHMARK.json at the repository root
// carries the same names, units and directions (pinned by a test) plus the
// regression bounds, which -compare reads from there.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the library or the cluster sees.
// Every workload reports every one, and none is ever 0. The two timings
// are divided by the reference kernel (see refKernel), timed after every
// op, because a shared host's speed drifts by more than the bounds allow.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},             // fresh process: start the component, run the first op, stop
	{"wall_xref", "x", "lower"},           // median op wall time ÷ median reference-kernel time
	{"cpu_xref", "x", "lower"},            // median op process CPU (user+sys) ÷ median reference-kernel time
	{"alloc_b_per_rec", "B/rec", "lower"}, // median heap bytes allocated per op, per record
}

// perLayer are the metrics of single layers, reported from --trace 1 runs.
// A layer a workload never enters reports 0.
var perLayer = []metricDef{
	{"pram.radix_mrec_s", "Mrec/s", "higher"},
	{"record.codec_mrec_s", "Mrec/s", "higher"},
	{"core.run_formation_s", "s", "lower"},
	{"core.partition_elements_s", "s", "lower"},
	{"core.distribute_tracks_s", "s", "lower"},
	{"core.distribute_self_s", "s", "lower"},
	{"core.base_case_s", "s", "lower"},
	{"core.passes", "count", "lower"},
	{"core.max_bucket_read_ratio", "ratio", "lower"},
	{"balance.repair_s", "s", "lower"},
	{"guidesort.run_formation_s", "s", "lower"},
	{"guidesort.merge_s", "s", "lower"},
	{"guidesort.guide_build_s", "s", "lower"},
	{"pdm.model_ios", "count", "lower"},
	{"pdm.io_ratio", "ratio", "lower"},
	{"pdm.blocks_moved_per_rec", "blocks/rec", "lower"},
	{"diskio.dev_bytes_per_rec", "B/rec", "lower"},
	{"diskio.busy_s", "s", "lower"},
	{"diskio.flush_s", "s", "lower"},
	{"diskio.prefetch_hit_ratio", "ratio", "higher"},
	{"diskio.blocks_per_write", "blocks", "higher"},
	{"diskio.queue_max", "count", "lower"},
	{"diskio.retries", "count", "lower"},
	{"plan.actual_over_pred", "ratio", "lower"},
	{"cluster.scatter_s", "s", "lower"},
	{"cluster.histogram_merge_s", "s", "lower"},
	{"cluster.plan_s", "s", "lower"},
	{"cluster.exchange_s", "s", "lower"},
	{"cluster.gather_s", "s", "lower"},
	{"cluster.local_sort_s", "s", "lower"},
	{"cluster.drain_s", "s", "lower"},
	{"cluster.serial_frac", "ratio", "lower"},
	{"cluster.local_sort_overlap_pct", "%", "higher"},
	{"cluster.shard_sort_max_s", "s", "lower"},
	{"cluster.shard_imbalance", "ratio", "lower"},
	{"cluster.wire_bytes_per_rec", "B/rec", "lower"},
	{"cluster.busy_retries", "count", "lower"},
	{"cluster.speedup_2w", "x", "higher"},
	{"cluster.parallel_eff", "ratio", "higher"},
	{"runtime.peak_live_heap_mib", "MiB", "lower"},
	{"host.ref_s", "s", "lower"},
	{"obs.trace_overhead", "ratio", "lower"},
	{"obs.spans_dropped", "count", "lower"},
}
