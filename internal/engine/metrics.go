package engine

import (
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/vsa"
)

// Stage names a request-path pipeline stage of the engine. Stage wall
// times are recorded once per request (or per streamed document) into
// per-stage histograms, so /v1/stats can report where a request's time
// goes without any per-segment bookkeeping.
//
// Stage boundaries:
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
//	         dedupe) — a sub-interval of eval, recorded by the executor
//	         itself, so never for a document evaluated whole.
//	decide   the paper's decision procedures inside a cold compilation
//	         (disjointness, locality, split-correctness or
//	         self-splittability; Plan.DecideTime) — a sub-interval of
//	         plan, recorded once per plan-cache miss and never on a hit.
//	         Disjointness and locality count only on the miss that
//	         built the splitter's cache entry (splitterArtifact).
//
// The localize/simulate split within evaluation is tracked separately
// by vsa.EvalMetrics for evaluations large enough to time (see
// vsa.MetricsMinDocBytes).
type Stage int

const (
	StagePlan Stage = iota
	StageSegment
	StageEval
	numStages
)

func (s Stage) String() string {
	switch s {
	case StagePlan:
		return "plan"
	case StageSegment:
		return "segment"
	case StageEval:
		return "eval"
	}
	return "unknown"
}

// Metrics is the engine's observability state: every counter, gauge and
// histogram the engine and the layers below it (split executor,
// evaluation core) record into, plus the registry that exports them.
// One Metrics belongs to one Engine; recording is lock-free (see
// internal/obs) and the registry is only walked at scrape time.
type Metrics struct {
	reg *obs.Registry

	documents    obs.Counter
	streamedDocs obs.Counter
	wholeDocs    obs.Counter
	chunkedDocs  obs.Counter
	bytes        obs.Counter
	segments     obs.Counter

	// syncFallbacks sums core.CutFinder.Fallbacks over the chunked
	// route's documents.
	syncFallbacks obs.Counter

	stages [numStages]obs.Histogram // wall ns per request, by Stage
	decide obs.Histogram            // wall ns per cold compilation (nested in plan)

	eval  vsa.EvalMetrics
	exec  parallel.ExecMetrics
	multi vsa.MultiMetrics
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

	for s := Stage(0); s < numStages; s++ {
		r.BindDurationHistogram(`spanners_engine_stage_seconds{stage="`+s.String()+`"}`,
			"request-path stage wall time", &m.stages[s])
	}
	r.BindDurationHistogram(`spanners_engine_stage_seconds{stage="merge"}`,
		"request-path stage wall time", &m.exec.MergeNS)
	r.BindDurationHistogram(`spanners_engine_stage_seconds{stage="decide"}`,
		"request-path stage wall time", &m.decide)

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

	r.BindCounter("spanners_exec_runs_total", "split-executor runs", &m.exec.Runs)
	r.BindCounter("spanners_exec_chunks_total", "chunks executed", &m.exec.Chunks)
	r.BindCounter("spanners_exec_segments_total", "units evaluated by the executor: segments, or chunks of them on the chunked route", &m.exec.Segments)
	r.BindCounter("spanners_exec_eval_bytes_total", "segment bytes evaluated by the executor", &m.exec.EvalBytes)
	r.BindDurationCounter("spanners_exec_busy_seconds_total", "summed worker time spent executing chunks", &m.exec.BusyNS)
	r.BindDurationCounter("spanners_exec_run_seconds_total", "summed executor run wall time", &m.exec.RunNS)

	r.BindCounter("spanners_eval_instrumented_total", "evaluations large enough to time sub-phases", &m.eval.Evals)
	r.BindCounter("spanners_eval_doc_bytes_total", "bytes in instrumented evaluations", &m.eval.DocBytes)
	r.BindDurationCounter("spanners_eval_localize_seconds_total", "time in bidirectional match-window localization", &m.eval.LocalizeNS)
	r.BindDurationCounter("spanners_eval_sim_seconds_total", "time in the tagged frontier simulation", &m.eval.SimNS)
	r.BindCounter("spanners_eval_windows_total", "match windows simulated", &m.eval.Windows)
	r.BindCounter("spanners_eval_window_bytes_total", "bytes inside simulated match windows", &m.eval.WindowBytes)
	r.BindCounter("spanners_eval_empty_total", "instrumented evaluations rejected by the forward scan alone", &m.eval.EmptyDocs)
	r.BindCounter("spanners_eval_fallbacks_total", "instrumented evaluations on the whole-document fallback path", &m.eval.Fallbacks)
	r.BindCounter("spanners_eval_prefilter_skipped_bytes_total", "bytes skipped by the literal prefilter (factor gate + trigger-byte jumps)", &m.eval.PrefilterSkippedBytes)
	r.BindCounter("spanners_eval_prefilter_stand_downs_total", "instrumented evaluations whose trigger-byte skip loop stood down for lack of yield", &m.eval.PrefilterStandDowns)
	r.BindCounter("spanners_eval_prefilter_candidates_total", "instrumented evaluations that passed the mandatory-factor gate", &m.eval.PrefilterCandidates)
	for rs := vsa.PrefilterReason(0); int(rs) < vsa.NumPrefilterReasons; rs++ {
		r.BindCounter(`spanners_eval_prefilter_disabled_total{reason="`+rs.String()+`"}`,
			"instrumented evaluations by prefilter admission-gate status", &m.eval.PrefilterDisabled[rs])
	}

	r.BindCounter("spanners_multi_fused_passes_total", "fused multi-query forward scans", &m.multi.FusedPasses)
	r.BindCounter("spanners_multi_fused_bytes_total", "document bytes covered by fused passes", &m.multi.FusedBytes)
	r.BindCounter("spanners_multi_fused_skipped_bytes_total", "fused-pass bytes skipped by the combined trigger-byte prefilter", &m.multi.FusedSkippedBytes)
	r.BindCounter("spanners_multi_fused_stand_downs_total", "fused passes whose trigger-byte skip loop stood down for lack of yield", &m.multi.FusedStandDowns)
	r.BindCounter("spanners_multi_demux_tuples_total", "result tuples demultiplexed into per-query relations", &m.multi.DemuxTuples)
	r.BindCounter("spanners_multi_admission_skips_total", "member×document pairs skipped by the per-query mandatory-factor admission bitmap", &m.multi.AdmissionSkips)
	r.BindCounter("spanners_multi_member_fallbacks_total", "member evaluations that ran standalone instead of fused", &m.multi.MemberFallbacks)

	return m
}

// observeStage records one request's wall time in a stage.
func (m *Metrics) observeStage(s Stage, d time.Duration) {
	m.stages[s].RecordDuration(d)
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
	BusyShare float64 `json:"busy_share"` // busy worker time / (run wall time × workers)
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
	snaps := make([]obs.HistogramSnapshot, numStages)
	var denom float64
	for s := Stage(0); s < numStages; s++ {
		snaps[s] = m.stages[s].Snapshot()
		denom += float64(snaps[s].Sum)
	}
	out := make(map[string]StageStats, int(numStages)+4)
	for s := Stage(0); s < numStages; s++ {
		out[s.String()] = histStage(snaps[s], denom)
	}
	out["merge"] = histStage(m.exec.MergeNS.Snapshot(), denom)
	out["decide"] = histStage(m.decide.Snapshot(), denom)
	out["localize"] = counterStage(m.eval.Evals.Load(), m.eval.LocalizeNS.Load(), denom)
	out["sim"] = counterStage(m.eval.Evals.Load(), m.eval.SimNS.Load(), denom)
	return out
}

func (m *Metrics) execStats(workers int) ExecStats {
	st := ExecStats{
		Runs:     m.exec.Runs.Load(),
		Chunks:   m.exec.Chunks.Load(),
		Segments: m.exec.Segments.Load(),
		EvalMB:   float64(m.exec.EvalBytes.Load()) / 1e6,
	}
	if run := m.exec.RunNS.Load(); run > 0 && workers > 0 {
		st.BusyShare = float64(m.exec.BusyNS.Load()) / (float64(run) * float64(workers))
	}
	return st
}

func (m *Metrics) segmenterStats() SegmenterStats {
	return SegmenterStats{SyncFallbacks: m.syncFallbacks.Load()}
}

func (m *Metrics) localizationStats() LocalizationStats {
	st := LocalizationStats{
		InstrumentedEvals: m.eval.Evals.Load(),
		EmptyDocs:         m.eval.EmptyDocs.Load(),
		Fallbacks:         m.eval.Fallbacks.Load(),
	}
	if db := m.eval.DocBytes.Load(); db > 0 {
		st.WindowByteShare = float64(m.eval.WindowBytes.Load()) / float64(db)
	}
	return st
}
