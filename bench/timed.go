package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// windowSlices is the number of equal slices a timed window is cut
// into; rates are the median over slices, so one stall of the shared
// box moves one slice, not the run.
const windowSlices = 5

// clientCount is the closed loop's width: spand's callers are few and
// wait for their answer, and more connections than cores would measure
// the generator queueing on itself.
func clientCount() int { return min(2, runtime.NumCPU()) }

// daemonInfo is what spand reported about itself with default flags.
type daemonInfo struct {
	workers, requestWorkers, batch, admit, planCap int
}

func infoOf(st *statsDoc) daemonInfo {
	return daemonInfo{workers: st.Workers, requestWorkers: st.RequestWorkers, batch: st.Batch,
		admit: st.Admission.Tokens, planCap: st.PlanCache.Cap}
}

// served is a fresh daemon that has answered one pass over the pool.
type served struct {
	s      *spand
	g      *generator
	setupS float64 // exec → listening → first pass over the pool finished
}

func (v *served) stop() {
	v.g.close()
	v.s.stop()
}

// serve starts a fresh spand and warms it with the pool: cold plans
// (compile, decision procedures, Prepare) and lazy-DFA fill happen here.
func serve(bin string, p *pool) (*served, error) {
	t0 := time.Now()
	s, err := startSpand(bin)
	if err != nil {
		return nil, err
	}
	v := &served{s: s, g: newGenerator(s.base, p, clientCount())}
	if err := v.g.warm(); err != nil {
		v.stop()
		return nil, fmt.Errorf("%w; spand log:\n%s", err, s.log.String())
	}
	v.setupS = time.Since(t0).Seconds()
	return v, nil
}

// timedResult is one untraced run of one workload.
type timedResult struct {
	metrics   map[string]float64 // the end-to-end metrics
	attempted int
	fails     [numFailKinds]int
	info      daemonInfo
}

// runTimed measures the end-to-end metrics of one workload: `setups`
// cold starts (the median is setup_s), then one window on the last
// daemon.
func runTimed(bin string, w *workload, seed uint64, window time.Duration, setups int) (*timedResult, error) {
	p, err := buildPool(w, seed)
	if err != nil {
		return nil, err
	}
	var v *served
	var setupS []float64
	for k := 0; k < setups; k++ {
		if v != nil {
			v.stop()
		}
		if v, err = serve(bin, p); err != nil {
			return nil, err
		}
		setupS = append(setupS, v.setupS)
	}
	defer v.stop()
	st, err := v.s.stats()
	if err != nil {
		return nil, err
	}
	pid := v.s.cmd.Process.Pid
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	samples := v.g.window(window, clientCount(), 0, nil)
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB(pid)
	if err != nil {
		return nil, err
	}

	r := &timedResult{attempted: len(samples), info: infoOf(st)}
	sum := summarize(samples, window)
	r.fails = sum.fails
	if sum.answered == 0 {
		return nil, fmt.Errorf("workload %s: no request answered correctly in the window (failures %v); spand log:\n%s",
			w.name, sum.fails, v.s.log.String())
	}
	r.metrics = map[string]float64{
		"docs_per_s":            sum.docsPerS,
		"throughput_mbps":       sum.mbps,
		"latency_p50_ms":        percentile(sum.lat, 50),
		"server_cpu_ms_per_doc": (cpu1 - cpu0) * 1000 / float64(sum.answered),
		"peak_rss_mb":           rss,
		"setup_s":               median(setupS),
	}
	return r, nil
}

// windowSummary condenses the samples of one window.
type windowSummary struct {
	answered  int     // 200, correct, expected path
	docsPerS  float64 // median over slices
	mbps      float64 // median over slices, 10^6 document bytes per second
	sliceDocs []float64
	lat       []float64 // sorted, ms, answered requests only
	fails     [numFailKinds]int
	relBytes  map[int]int // pool index → bytes of relation in its answer
}

func summarize(samples []sample, window time.Duration) windowSummary {
	sum := windowSummary{relBytes: map[int]int{}}
	slice := window / windowSlices
	docs := make([]float64, windowSlices)
	bytes := make([]float64, windowSlices)
	for _, s := range samples {
		if s.fail >= 0 {
			sum.fails[s.fail]++
			continue
		}
		sum.answered++
		sum.relBytes[s.doc] = s.relBytes
		sum.lat = append(sum.lat, float64(s.end-s.start)/1e6)
		// A request counts in each slice for the share of its duration
		// spent there, so a slice holds the work done in it rather than
		// the answers that happened to land in it, and the part of a
		// request past the window's end is left out.
		dur := float64(s.end - s.start)
		for k := int(s.start / slice); k < windowSlices && time.Duration(k)*slice < s.end; k++ {
			lo, hi := max(s.start, time.Duration(k)*slice), min(s.end, time.Duration(k+1)*slice)
			share := float64(hi-lo) / dur
			docs[k] += share
			bytes[k] += share * float64(s.nbytes)
		}
	}
	for k := range docs {
		docs[k] /= slice.Seconds()
		bytes[k] /= slice.Seconds() * 1e6
	}
	sum.sliceDocs = docs
	sum.docsPerS, sum.mbps = median(docs), median(bytes)
	sort.Float64s(sum.lat)
	return sum
}
