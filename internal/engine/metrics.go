package engine

import (
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/vsa"
)

// record is one document's record: what run did with it, each part
// counted by the layer that did the work — the executor run in exec, the
// evaluation passes (of a whole document too) in exec.Eval, the rest in
// run. Metrics.flush adds it into the aggregates when the document is done.
type record struct {
	route Execution
	// counted says the document passed its size check and counts in
	// documents; streamed that it was cut while it was read.
	counted, streamed bool
	// segmented and evaluated say which stage times were taken.
	segmented, evaluated bool
	// bytes is the document's size, or what was read of a stream;
	// segments the splitter's spans on the per-segment route;
	// syncFallbacks core.CutFinder.Fallbacks on the chunked route.
	bytes, segments, syncFallbacks uint64
	segment, eval                  time.Duration
	exec                           parallel.Record
}

// Metrics is the engine's observability state: the sums of the documents'
// records, written by flush alone (the plan and decide stages aside, which
// plan records) without a lock, and the registry that exports them at
// scrape time. The stages take one wall time per request or streamed
// document, so /v1/stats tells where the time goes without per-segment
// bookkeeping:
//
//	plan     Engine.Plan: the plan-cache get, including compilation and
//	         the decision procedures on a miss and the single-flight
//	         wait when coalesced.
//	segment  applying the splitter: the Split call on the per-segment
//	         route, the cut finder on the chunked route (summed over the
//	         feeds of a streamed document). A document evaluated whole
//	         (ExecWhole) records nothing here.
//	eval     the evaluation call (the whole-document Eval, or the split
//	         executor run including its final merge). On the streaming
//	         path evaluation overlaps ingestion, so this stage's wall
//	         time includes time blocked on the reader.
//	merge    the executor's final merge (concatenate + offset-sort +
//	         dedupe) — a sub-interval of eval, timed by the executor
//	         itself, so never for a document evaluated whole.
//	decide   the paper's decision procedures inside a cold compilation
//	         (disjointness, locality, split-correctness or
//	         self-splittability; Plan.DecideTime) — a sub-interval of
//	         plan, recorded once per plan-cache miss and never on a hit.
//	         Disjointness and locality count only on the miss that
//	         built the splitter's cache entry (splitterArtifact).
//
// The localize/simulate split within evaluation is counted in the
// evaluation part of the record (vsa.Record), for evaluations large
// enough to time (see vsa.MetricsMinDocBytes).
type Metrics struct {
	reg *obs.Registry

	// The record's own fields, summed (see record).
	documents, streamedDocs, wholeDocs, chunkedDocs obs.Counter
	bytes, segments, syncFallbacks                  obs.Counter

	// Wall ns per request or document, by stage (see above).
	plan, segment, eval, merge, decide obs.Histogram

	// The split executor's runs: chunks, segments and bytes evaluated,
	// and run, busy and worker time — workerNS sums each run's wall
	// time × its own worker count, busy_share's denominator.
	runs, chunks, execSegments, evalBytes obs.Counter
	runNS, busyNS, workerNS               obs.Counter

	// The evaluation part of the records, by vsa.Stat.
	counts [vsa.NumStats]obs.Counter
}

// flush adds one document's record into the aggregates.
func (m *Metrics) flush(r *record) {
	if r.counted {
		m.documents.Inc()
		if r.streamed {
			m.streamedDocs.Inc()
		}
		if r.route == ExecChunked {
			m.chunkedDocs.Inc()
		}
	}
	add(&m.bytes, r.bytes)
	add(&m.segments, r.segments)
	add(&m.syncFallbacks, r.syncFallbacks)
	if r.segmented {
		m.segment.RecordDuration(r.segment)
	}
	if r.evaluated {
		m.eval.RecordDuration(r.eval)
		if r.route == ExecWhole {
			m.wholeDocs.Inc()
		}
	}
	if x := &r.exec; x.Runs > 0 {
		m.runs.Add(x.Runs)
		add(&m.chunks, x.Chunks)
		add(&m.execSegments, x.Segments)
		add(&m.evalBytes, x.EvalBytes)
		m.runNS.AddDuration(x.Run)
		m.busyNS.AddDuration(x.Busy)
		m.workerNS.AddDuration(x.Run * time.Duration(x.Workers))
		m.merge.RecordDuration(x.Merge)
	}
	for i, n := range r.exec.Eval {
		add(&m.counts[i], n)
	}
}

// add adds n to c, skipping the shared write when there is nothing to add.
func add(c *obs.Counter, n uint64) {
	if n != 0 {
		c.Add(n)
	}
}

// newMetrics builds the engine's metrics and registers every series.
// Series are prefixed spanners_engine_ / spanners_exec_ / spanners_eval_
// so several subsystems can share one /metrics page without collisions.
func newMetrics(e *Engine) *Metrics {
	m := &Metrics{reg: obs.NewRegistry()}
	r := m.reg

	r.GaugeFunc("spanners_engine_uptime_seconds", "seconds since the engine was created",
		func() float64 { return time.Since(e.start).Seconds() })
	r.BindCounter("spanners_engine_documents_total", "documents evaluated", &m.documents)
	r.BindCounter("spanners_engine_documents_streamed_total", "documents segmented incrementally while streaming", &m.streamedDocs)
	r.BindCounter("spanners_engine_documents_whole_total", "documents evaluated whole on the request goroutine (sequential plans, and split plans' documents too small to amortise the executor)", &m.wholeDocs)
	r.BindCounter("spanners_engine_documents_chunked_total", "documents whose split route ran at chunk grain: the spanner evaluated once per chunk of consecutive segments", &m.chunkedDocs)
	r.BindCounter("spanners_engine_bytes_total", "document bytes ingested", &m.bytes)
	r.BindCounter("spanners_engine_segments_total", "splitter spans of documents on the per-segment split route (the chunked route cuts chunks without segmenting)", &m.segments)
	r.BindCounter("spanners_engine_segmenter_sync_fallbacks_total", "chunked-route feeds whose cut finder found no synchronized span end in its window and stepped exactly from its last known state", &m.syncFallbacks)

	for _, st := range []struct {
		name string
		h    *obs.Histogram
	}{{"plan", &m.plan}, {"segment", &m.segment}, {"eval", &m.eval}, {"merge", &m.merge}, {"decide", &m.decide}} {
		r.BindDurationHistogram(`spanners_engine_stage_seconds{stage="`+st.name+`"}`, "request-path stage wall time", st.h)
	}

	cacheStat := func(f func(CacheStats) float64) func() float64 {
		return func() float64 { return f(e.cache.stats()) }
	}
	r.CounterFunc("spanners_plan_cache_hits_total", "plan-cache hits on completed plans",
		cacheStat(func(s CacheStats) float64 { return float64(s.Hits) }))
	r.CounterFunc("spanners_plan_cache_misses_total", "plan compilations (including failed ones)",
		cacheStat(func(s CacheStats) float64 { return float64(s.Misses) }))
	r.CounterFunc("spanners_plan_cache_coalesced_total", "requests coalesced onto an in-flight compilation",
		cacheStat(func(s CacheStats) float64 { return float64(s.Coalesced) }))
	r.CounterFunc("spanners_plan_cache_splitter_hits_total", "plan compilations that took their splitter from the plan cache",
		cacheStat(func(s CacheStats) float64 { return float64(s.SplitterHits) }))
	r.CounterFunc("spanners_plan_cache_evictions_total", "plans and splitter artifacts evicted by the LRU",
		cacheStat(func(s CacheStats) float64 { return float64(s.Evictions) }))
	r.GaugeFunc("spanners_plan_cache_size", "cached plans and splitter artifacts",
		cacheStat(func(s CacheStats) float64 { return float64(s.Size) }))

	r.BindCounter("spanners_exec_runs_total", "split-executor runs", &m.runs)
	r.BindCounter("spanners_exec_chunks_total", "chunks executed", &m.chunks)
	r.BindCounter("spanners_exec_segments_total", "units evaluated by the executor: segments, or chunks of them on the chunked route", &m.execSegments)
	r.BindCounter("spanners_exec_eval_bytes_total", "segment bytes evaluated by the executor", &m.evalBytes)
	r.BindDurationCounter("spanners_exec_busy_seconds_total", "summed worker time spent executing chunks", &m.busyNS)
	r.BindDurationCounter("spanners_exec_run_seconds_total", "summed executor run wall time", &m.runNS)

	r.BindCounter("spanners_eval_instrumented_total", "evaluations large enough to time sub-phases", &m.counts[vsa.Evals])
	r.BindCounter("spanners_eval_doc_bytes_total", "bytes in instrumented evaluations", &m.counts[vsa.DocBytes])
	r.BindDurationCounter("spanners_eval_localize_seconds_total", "time in bidirectional match-window localization", &m.counts[vsa.Localize])
	r.BindDurationCounter("spanners_eval_sim_seconds_total", "time in the tagged frontier simulation", &m.counts[vsa.Sim])
	r.BindCounter("spanners_eval_windows_total", "match windows simulated", &m.counts[vsa.Windows])
	r.BindCounter("spanners_eval_window_bytes_total", "bytes inside simulated match windows", &m.counts[vsa.WindowBytes])
	r.BindCounter("spanners_eval_empty_total", "instrumented evaluations rejected by the forward scan alone", &m.counts[vsa.EmptyDocs])
	r.BindCounter("spanners_eval_fallbacks_total", "instrumented evaluations on the whole-document fallback path", &m.counts[vsa.Fallbacks])
	r.BindCounter("spanners_eval_prefilter_skipped_bytes_total", "bytes skipped by the literal prefilter (factor gate + trigger-byte jumps)", &m.counts[vsa.PrefilterSkippedBytes])
	r.BindCounter("spanners_eval_prefilter_stand_downs_total", "instrumented evaluations whose trigger-byte skip loop stood down for lack of yield", &m.counts[vsa.PrefilterStandDowns])
	r.BindCounter("spanners_eval_prefilter_candidates_total", "instrumented evaluations that passed the mandatory-factor gate", &m.counts[vsa.PrefilterCandidates])
	for rs := vsa.PrefilterReason(0); int(rs) < vsa.NumPrefilterReasons; rs++ {
		r.BindCounter(`spanners_eval_prefilter_disabled_total{reason="`+rs.String()+`"}`,
			"instrumented evaluations by prefilter admission-gate status", &m.counts[vsa.PrefilterDisabled+vsa.Stat(rs)])
	}

	r.BindCounter("spanners_multi_fused_passes_total", "fused multi-query forward scans", &m.counts[vsa.FusedPasses])
	r.BindCounter("spanners_multi_fused_bytes_total", "document bytes covered by fused passes", &m.counts[vsa.FusedBytes])
	r.BindCounter("spanners_multi_fused_skipped_bytes_total", "fused-pass bytes skipped by the combined trigger-byte prefilter", &m.counts[vsa.FusedSkippedBytes])
	r.BindCounter("spanners_multi_fused_stand_downs_total", "fused passes whose trigger-byte skip loop stood down for lack of yield", &m.counts[vsa.FusedStandDowns])
	r.BindCounter("spanners_multi_demux_tuples_total", "result tuples demultiplexed into per-query relations", &m.counts[vsa.DemuxTuples])
	r.BindCounter("spanners_multi_admission_skips_total", "member×document pairs skipped by the per-query mandatory-factor admission bitmap", &m.counts[vsa.AdmissionSkips])
	r.BindCounter("spanners_multi_member_fallbacks_total", "member evaluations that ran standalone instead of fused", &m.counts[vsa.MemberFallbacks])

	return m
}

// Registry returns the engine's metric registry, for embedding the
// engine's series into a service's /metrics endpoint (the daemon adds
// its HTTP-level series to the same registry).
func (e *Engine) Registry() *obs.Registry { return e.m.reg }

// StageStats is the /v1/stats view of one pipeline stage.
type StageStats struct {
	// Count is the number of recorded stage intervals, TotalMS their
	// summed wall time.
	Count   uint64  `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// Share is TotalMS over the summed wall time of the top-level
	// stages (plan + segment + eval). The top-level stages' shares sum
	// to 1; nested stages (merge, localize, sim, decide) are fractions
	// of the same denominator, so "merge share 0.04" reads as 4% of all
	// request-path time. Nested stages measured on worker clocks can
	// exceed their parent's wall time under multi-core parallelism.
	Share float64 `json:"share"`
	// Latency percentiles per recorded interval (log₂-bucketed: exact
	// to within a factor of two). Zero when the stage records only
	// totals, not a distribution.
	P50MS float64 `json:"p50_ms,omitempty"`
	P90MS float64 `json:"p90_ms,omitempty"`
	P99MS float64 `json:"p99_ms,omitempty"`
}

// SegmenterStats is the /v1/stats view of the chunked route's cut finder:
// how often it fell back to stepping exactly (SyncFallbacks).
type SegmenterStats struct {
	SyncFallbacks uint64 `json:"sync_fallbacks"`
}

// ExecStats is the /v1/stats view of the split executor.
type ExecStats struct {
	Runs      uint64  `json:"runs"`
	Chunks    uint64  `json:"chunks"`
	Segments  uint64  `json:"segments"`
	EvalMB    float64 `json:"eval_mb"`
	BusyShare float64 `json:"busy_share"` // busy worker time / Σ runs (run wall time × the run's workers)
}

// LocalizationStats is the /v1/stats view of the match-window
// localizer, over instrumented (≥ vsa.MetricsMinDocBytes) evaluations.
type LocalizationStats struct {
	InstrumentedEvals uint64  `json:"instrumented_evals"`
	WindowByteShare   float64 `json:"window_byte_share"` // simulated bytes / input bytes
	EmptyDocs         uint64  `json:"empty_docs"`
	Fallbacks         uint64  `json:"fallbacks"`
}

const msPerNS = 1e-6

func histStage(s obs.HistogramSnapshot, denomNS float64) StageStats {
	st := StageStats{
		Count:   s.Count,
		TotalMS: float64(s.Sum) * msPerNS,
		P50MS:   s.Quantile(0.50) * msPerNS,
		P90MS:   s.Quantile(0.90) * msPerNS,
		P99MS:   s.Quantile(0.99) * msPerNS,
	}
	if denomNS > 0 {
		st.Share = float64(s.Sum) / denomNS
	}
	return st
}

func counterStage(count, ns uint64, denomNS float64) StageStats {
	st := StageStats{Count: count, TotalMS: float64(ns) * msPerNS}
	if denomNS > 0 {
		st.Share = float64(ns) / denomNS
	}
	return st
}

// stageStats builds the complete per-stage breakdown in one pass.
func (m *Metrics) stageStats() map[string]StageStats {
	plan, seg, ev := m.plan.Snapshot(), m.segment.Snapshot(), m.eval.Snapshot()
	denom := float64(plan.Sum + seg.Sum + ev.Sum)
	return map[string]StageStats{
		"plan":     histStage(plan, denom),
		"segment":  histStage(seg, denom),
		"eval":     histStage(ev, denom),
		"merge":    histStage(m.merge.Snapshot(), denom),
		"decide":   histStage(m.decide.Snapshot(), denom),
		"localize": counterStage(m.counts[vsa.Evals].Load(), m.counts[vsa.Localize].Load(), denom),
		"sim":      counterStage(m.counts[vsa.Evals].Load(), m.counts[vsa.Sim].Load(), denom),
	}
}
