package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// tracedResult is the traced run of one workload.
type tracedResult struct {
	metrics   map[string]float64 // the per-layer metrics
	attempted int
	fails     [numFailKinds]int
	ledger    ledger
	tracePath string
	trace     *tracer
	info      daemonInfo
}

// ledger is the per-workload split of one request at one client:
// request = HTTP overhead + the layers' self times.
type ledger struct {
	requestMS  float64            // spand.request_1c_p50_ms
	overheadMS float64            // request − in-process engine entry point
	selfMS     map[string]float64 // layer → median self time per request
}

func (l ledger) sumMS() float64 {
	s := l.overheadMS
	for _, v := range l.selfMS {
		s += v
	}
	return s
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runTraced is the separate traced run. Phase A drives a fresh daemon
// over HTTP, every other pass over the pool recording spans (the
// difference between the two kinds is the tracing overhead), with
// /v1/stats scraped before and after, then one client over the ledger
// documents. Phase B times the layers' public functions in-process on
// the same documents.
func runTraced(bin, outDir string, w *workload, seed uint64, seconds time.Duration) (*tracedResult, error) {
	p, err := buildPool(w, seed)
	if err != nil {
		return nil, err
	}
	v, err := serve(bin, p)
	if err != nil {
		return nil, err
	}
	defer v.stop() // again after phase A's own stop is harmless
	tr := newTracer()
	m := map[string]float64{}
	r := &tracedResult{metrics: m, trace: tr}

	// Phase A.
	s0, err := v.s.stats()
	if err != nil {
		return nil, err
	}
	r.info = infoOf(s0)
	cpu0, t0 := selfCPUSeconds(), time.Now()
	samples := v.g.window(seconds*2/5, clientCount(), 0, tr)
	genCPU, wall := selfCPUSeconds()-cpu0, time.Since(t0).Seconds()
	s1, err := v.s.stats()
	if err != nil {
		return nil, err
	}
	sum := summarize(samples, seconds*2/5)
	r.attempted, r.fails = len(samples), sum.fails
	var lat [2][]float64                  // request latencies in ms: untraced, traced
	byDoc := [2]map[int][]float64{{}, {}} // the same, per document
	for _, s := range samples {
		if s.fail >= 0 {
			continue
		}
		k := 0
		if s.traced {
			k = 1
		}
		ms := float64(s.end-s.start) / 1e6
		lat[k] = append(lat[k], ms)
		byDoc[k][s.doc] = append(byDoc[k][s.doc], ms)
	}
	if len(lat[0]) == 0 || len(lat[1]) == 0 {
		return nil, fmt.Errorf("workload %s: traced run answered nothing (failures %v); spand log:\n%s",
			w.name, r.fails, v.s.log.String())
	}
	sort.Float64s(lat[0])
	sort.Float64s(lat[1])
	m["spand.request_p50_ms"] = percentile(lat[1], 50)
	m["spand.latency_p95_ms"] = percentile(lat[0], 95)
	m["spand.latency_p99_ms"] = percentile(lat[0], 99)
	m["spand.latency_max_ms"] = lat[0][len(lat[0])-1]
	// Tracing overhead: in a closed loop documents per second go as
	// 1/latency. Medians are taken per document and summed, because the
	// documents of a pool can differ enough to make the pooled median
	// jump between them.
	var sums [2]float64
	for doc, un := range byDoc[0] {
		if with := byDoc[1][doc]; len(with) > 0 {
			sums[0] += median(un)
			sums[1] += median(with)
		}
	}
	m["bench.trace_overhead_share"] = 1 - sums[0]/sums[1]
	m["bench.generator_cpu_share"] = genCPU / (wall * float64(runtime.NumCPU()))
	m["bench.round_spread"] = spread(sum.sliceDocs)
	relBytes := 0
	for _, n := range sum.relBytes {
		relBytes += n
	}
	m["spand.response_bytes_per_doc"] = float64(relBytes) / float64(len(sum.relBytes))
	statsMetrics(m, w, s0, s1)

	// One client over the ledger documents: the request the ledger splits.
	ldocs := ledgerDocs(p)
	samples = v.g.window(seconds*3/20, 1, len(ldocs), tr)
	one := summarize(samples, seconds*3/20)
	r.attempted += len(samples)
	for i, f := range one.fails {
		r.fails[i] += f
	}
	if one.answered == 0 {
		return nil, fmt.Errorf("workload %s: one-client phase answered nothing (failures %v)", w.name, one.fails)
	}
	m["bench.docs_attempted"] = float64(r.attempted)
	m["bench.failed_share"] = float64(failures(r.fails)) / float64(r.attempted)
	m["spand.request_1c_p50_ms"] = percentile(one.lat, 50)
	v.stop() // phase B has the box to itself

	// Phase B.
	lb := newLayerBench(p, r.info, tr, seconds*3/200)
	if err := lb.measure(); err != nil {
		return nil, err
	}
	if err := lb.replay(); err != nil {
		return nil, err
	}
	for k, val := range lb.m {
		m[k] = val
	}

	// The ledger: each layer's median share of a replayed request, the
	// shares scaled to sum to one (one request's parts add up, medians of
	// parts need not), times the median in-process request.
	reqs := tr.splits("engine.request")
	var roots, overrun []float64
	shares := map[string][]float64{}
	for _, q := range reqs {
		roots = append(roots, float64(q.root)/1e6)
		var parts time.Duration
		for _, layer := range ledgerLayers {
			shares[layer] = append(shares[layer], float64(q.layers[layer])/float64(q.root))
			parts += q.layers[layer]
		}
		overrun = append(overrun, float64(parts-q.root)/float64(q.root))
	}
	inProcess, shareSum := median(roots), 0.0
	for _, layer := range ledgerLayers {
		shareSum += median(shares[layer])
	}
	r.ledger = ledger{requestMS: m["spand.request_1c_p50_ms"], selfMS: map[string]float64{}}
	for _, layer := range ledgerLayers {
		r.ledger.selfMS[layer] = median(shares[layer]) / shareSum * inProcess
	}
	r.ledger.overheadMS = r.ledger.requestMS - inProcess
	m["spand.http_overhead_ms"] = r.ledger.overheadMS
	m["spand.http_overhead_share"] = r.ledger.overheadMS / r.ledger.requestMS
	m["engine.self_share"] = r.ledger.selfMS["engine"] / inProcess
	// What replayed children overran their parents by does not fit the
	// request they were replayed for: the part of the ledger that does
	// not close.
	m["bench.ledger_gap_share"] = median(overrun) * inProcess / r.ledger.requestMS

	if r.tracePath, err = tr.write(outDir, w.name); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return r, nil
}

// statsMetrics fills the rows that are deltas (or, for ratios spand
// only reports cumulatively, end values) of /v1/stats over phase A.
func statsMetrics(m map[string]float64, w *workload, s0, s1 *statsDoc) {
	docs := float64(s1.Documents - s0.Documents)
	perDoc := func(d uint64) float64 {
		if docs == 0 {
			return 0
		}
		return float64(d) / docs
	}
	stage := func(name string) float64 { return s1.Stages[name].TotalMS - s0.Stages[name].TotalMS }
	top := stage("plan") + stage("segment") + stage("eval")
	share := func(name string) float64 {
		if top == 0 {
			return 0
		}
		return stage(name) / top
	}
	m["vsa.window_byte_share"] = s1.Localization.WindowByteShare
	m["vsa.localizer_fallbacks"] = float64(s1.Localization.Fallbacks - s0.Localization.Fallbacks)
	m["parallel.busy_share"] = s1.Executor.BusyShare
	m["parallel.steals_per_doc"] = perDoc(s1.Executor.Steals - s0.Executor.Steals)
	m["parallel.merge_share"] = share("merge")
	hits := float64(s1.PlanCache.Hits + s1.PlanCache.Coalesced - s0.PlanCache.Hits - s0.PlanCache.Coalesced)
	misses := float64(s1.PlanCache.Misses - s0.PlanCache.Misses)
	m["engine.plan_cache_hit_rate"] = 0
	if hits+misses > 0 {
		m["engine.plan_cache_hit_rate"] = hits / (hits + misses)
	}
	m["engine.plan_cache_evictions_per_doc"] = perDoc(s1.PlanCache.Evictions - s0.PlanCache.Evictions)
	m["engine.stage_plan_share"] = share("plan")
	m["engine.stage_segment_share"] = share("segment")
	m["engine.stage_eval_share"] = share("eval")
	m["engine.streamed_docs_share"] = perDoc(s1.StreamedDocs - s0.StreamedDocs)
	m["engine.segmenter_bails"] = float64(s1.Segmenter.Bails - s0.Segmenter.Bails)
	m["admission.queue_age_p99_ms"] = s1.Admission.QueueAgeP99MS
	m["admission.shed"] = float64(s1.Admission.ShedFull + s1.Admission.ShedAged - s0.Admission.ShedFull - s0.Admission.ShedAged)
	m["spand.server_p50_ms"] = s1.Endpoints[w.endpoint].P50MS
}
