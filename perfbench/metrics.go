package main

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics untraced runs report, with the share of the
// parent's median by which each may worsen before a change counts as a
// regression. setup_s has the largest bound allowed; the timing bounds
// sit just under it because on a shared 2-core virtual machine whole
// runs slow down together when the hypervisor steals CPU, spreading
// ten runs' timings by 0.1 to 0.3 of their median. The heap is
// steadier. Drill latencies are not among these metrics: only
// session-events drills, and every run must report every end-to-end
// metric, so they ride in the record's extras and among the traced
// per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "ops/s", "higher", 0.24},
	{"explore_p50_ms", "ms", "lower", 0.24},
	{"explore_p90_ms", "ms", "lower", 0.24},
	{"cold_explore_ms", "ms", "lower", 0.24},
	{"live_heap_mb", "MB", "lower", 0.15},
}

// perLayer are the metrics traced runs report. Layers a workload does
// not exercise report 0.
var perLayer = []metricDef{
	{Name: "server.self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.resp_kb", Unit: "KB", Better: "lower"},
	{Name: "cql.bind_us", Unit: "us", Better: "lower"},
	{Name: "session.explore_ms", Unit: "ms", Better: "lower"},
	{Name: "session.drill_ms", Unit: "ms", Better: "lower"},
	{Name: "session.predcache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "session.retained_mb", Unit: "MB", Better: "lower"},
	{Name: "core.pipeline_ms", Unit: "ms", Better: "lower"},
	{Name: "core.screen_ms", Unit: "ms", Better: "lower"},
	{Name: "core.distance_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cluster_ms", Unit: "ms", Better: "lower"},
	{Name: "core.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "core.rank_ms", Unit: "ms", Better: "lower"},
	{Name: "core.unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.eval_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.prune_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.selectivity", Unit: "ratio", Better: "lower"},
	{Name: "colstore.decodes_per_op", Unit: "count", Better: "lower"},
	{Name: "colstore.read_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "colstore.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "colstore.decode_us_per_chunk", Unit: "us", Better: "lower"},
	{Name: "shard.open_ms", Unit: "ms", Better: "lower"},
	{Name: "remote.rpcs_per_op", Unit: "count", Better: "lower"},
	{Name: "remote.wire_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "remote.chunk_fetches_per_op", Unit: "count", Better: "lower"},
	{Name: "remote.retries_per_op", Unit: "count", Better: "lower"},
	{Name: "remote.chunk_rpc_ms", Unit: "ms", Better: "lower"},
	{Name: "process.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "drill_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "drill_p90_ms", Unit: "ms", Better: "lower"},
}
