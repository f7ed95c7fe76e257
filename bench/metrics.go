package main

// metricDef declares one metric the harness prints. BENCHMARK.json
// carries the same names, units and bounds; the smoke test keeps the
// two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd are the metrics a caller of spand sees; every workload
// reports all of them from an untraced run.
//
// failed_share is deliberately not here: the driver's contract wants
// metrics that are never 0, and failures are carried by the run's
// attempted/failed counts instead (any failed request makes the run
// incorrect). It is printed as the per-layer row bench.failed_share.
// Tail latency is not here either: with a few hundred samples per run
// on a shared box it does not hold a bound; see spand.latency_p95_ms.
//
// Every bound is the contract's widest, 0.25: on the 2-vCPU box this
// was written on, a pure single-thread loop moves 6–12% (inter-quartile
// range over its median) between 20 s windows, so no timing of spand can
// hold the 10% the issue asked for; README.md has the measured spreads.
var endToEnd = []metricDef{
	{"docs_per_s", "1/s", "higher", 0.25},
	{"throughput_mbps", "MB/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"server_cpu_ms_per_doc", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics, named after the module they
// measure. They carry no bound.
var perLayer = []metricDef{
	{name: "regexformula.compile_us", unit: "us", better: "lower"},
	{name: "core.decide_us", unit: "us", better: "lower"},
	{name: "core.split_mbps", unit: "MB/s", better: "higher"},
	{name: "core.scanfeed_mbps", unit: "MB/s", better: "higher"},
	{name: "core.scan_bails", unit: "count", better: "lower"},
	{name: "core.segments_per_doc", unit: "count", better: "lower"},
	{name: "vsa.evalbool_mbps", unit: "MB/s", better: "higher"},
	{name: "vsa.eval_mbps", unit: "MB/s", better: "higher"},
	{name: "vsa.eval_segment_ns", unit: "ns", better: "lower"},
	{name: "vsa.prepare_us", unit: "us", better: "lower"},
	{name: "lazydfa.fill_us", unit: "us", better: "lower"},
	{name: "vsa.multi_eval_mbps", unit: "MB/s", better: "higher"},
	{name: "vsa.multi_fusion_ratio", unit: "x", better: "higher"},
	{name: "vsa.tuples_per_doc", unit: "count", better: "lower"},
	{name: "vsa.window_byte_share", unit: "ratio", better: "lower"},
	{name: "vsa.localizer_fallbacks", unit: "count", better: "lower"},
	{name: "parallel.spliteval_w1_mbps", unit: "MB/s", better: "higher"},
	{name: "parallel.spliteval_wn_mbps", unit: "MB/s", better: "higher"},
	{name: "parallel.sched_overhead_share", unit: "ratio", better: "lower"},
	{name: "parallel.scaling_efficiency", unit: "ratio", better: "higher"},
	{name: "parallel.split_speedup", unit: "x", better: "higher"},
	{name: "parallel.multieval_mbps", unit: "MB/s", better: "higher"},
	{name: "parallel.busy_share", unit: "ratio", better: "higher"},
	{name: "parallel.steals_per_doc", unit: "count", better: "lower"},
	{name: "parallel.merge_share", unit: "ratio", better: "lower"},
	{name: "engine.plan_hit_ns", unit: "ns", better: "lower"},
	{name: "engine.plan_cold_us", unit: "us", better: "lower"},
	{name: "engine.extract_mbps", unit: "MB/s", better: "higher"},
	{name: "engine.extractreader_mbps", unit: "MB/s", better: "higher"},
	{name: "engine.extractbatch_mbps", unit: "MB/s", better: "higher"},
	{name: "engine.self_share", unit: "ratio", better: "lower"},
	{name: "engine.plan_cache_hit_rate", unit: "ratio", better: "higher"},
	{name: "engine.plan_cache_evictions_per_doc", unit: "count", better: "lower"},
	{name: "engine.stage_plan_share", unit: "ratio", better: "lower"},
	{name: "engine.stage_segment_share", unit: "ratio", better: "lower"},
	{name: "engine.stage_eval_share", unit: "ratio", better: "lower"},
	{name: "engine.streamed_docs_share", unit: "ratio", better: "higher"},
	{name: "engine.segmenter_bails", unit: "count", better: "lower"},
	{name: "admission.acquire_ns", unit: "ns", better: "lower"},
	{name: "admission.queue_age_p99_ms", unit: "ms", better: "lower"},
	{name: "admission.shed", unit: "count", better: "lower"},
	{name: "spand.request_p50_ms", unit: "ms", better: "lower"},
	{name: "spand.request_1c_p50_ms", unit: "ms", better: "lower"},
	{name: "spand.server_p50_ms", unit: "ms", better: "lower"},
	{name: "spand.http_overhead_ms", unit: "ms", better: "lower"},
	{name: "spand.http_overhead_share", unit: "ratio", better: "lower"},
	{name: "spand.response_bytes_per_doc", unit: "count", better: "lower"},
	{name: "spand.latency_p95_ms", unit: "ms", better: "lower"},
	{name: "spand.latency_p99_ms", unit: "ms", better: "lower"},
	{name: "spand.latency_max_ms", unit: "ms", better: "lower"},
	{name: "bench.memchr_mbps", unit: "MB/s", better: "higher"},
	{name: "bench.json_decode_mbps", unit: "MB/s", better: "higher"},
	{name: "bench.json_encode_mbps", unit: "MB/s", better: "higher"},
	{name: "bench.generator_cpu_share", unit: "ratio", better: "lower"},
	{name: "bench.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "bench.docs_attempted", unit: "count", better: "higher"},
	{name: "bench.failed_share", unit: "ratio", better: "lower"},
	{name: "bench.round_spread", unit: "ratio", better: "lower"},
	{name: "bench.ledger_gap_share", unit: "ratio", better: "lower"},
}

// countMetrics must repeat exactly for a fixed seed: they count what
// the inputs are, not how fast the box was.
var countMetrics = []string{
	"core.scan_bails", "core.segments_per_doc", "vsa.tuples_per_doc", "spand.response_bytes_per_doc",
}

// ledgerLayers are the rows of the per-workload ledger below the HTTP
// overhead, in request order.
var ledgerLayers = []string{"engine", "regexformula", "core", "parallel", "vsa"}
