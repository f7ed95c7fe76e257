// Package loadgen is a concurrent load harness for a spand-compatible
// extraction daemon. It drives N closed-loop connections against
// POST /v1/extract with a mixed workload — plan-cache hits and misses,
// small and large documents, inline JSON and streamed raw bodies — and
// reports client-side throughput and latency percentiles per
// connection count. cmd/spanload is the CLI; the spand test suite runs
// the same harness in-process as a CI smoke.
//
// Latencies are collected into the same log₂-bucketed histograms the
// daemon itself is instrumented with (internal/obs), so the client's
// percentiles and the daemon's /v1/stats percentiles are directly
// comparable.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The hot plan: a split-parallel email spanner over a sentence
// splitter, identical for every hit request so it is compiled once and
// served from the plan cache thereafter.
const (
	hotSpanner  = `(.*[^a-z0-9])?(y{[a-z0-9]+@[a-z0-9]+})([^a-z0-9].*)?`
	hotSplitter = "(x{[^.!?\\n]*})([.!?\\n][^.!?\\n]*)*|" +
		"[^.!?\\n]*([.!?\\n][^.!?\\n]*)*[.!?\\n](x{[^.!?\\n]*})([.!?\\n][^.!?\\n]*)*"
)

// missSpanner returns the n-th unique spanner formula. Each is seen at
// most once per run, so every one is a plan-cache miss that pays
// compilation and the decision procedures inline with the request.
func missSpanner(n uint64) string {
	return fmt.Sprintf(`(.*)(y{m%dx[a-z0-9]+@[a-z0-9]+})(.*)`, n)
}

// batchSpanners is the fixed query set of the fused-batch requests: the
// hot email spanner plus two more formulas, registered together so the
// daemon answers all three with one shared document pass
// (/v1/extract-batch). Identical across requests, so the fused plan is
// compiled once and cache-hit thereafter.
var batchSpanners = []string{
	hotSpanner,
	`(.*[^a-z])?(y{then|finally})([^a-z].*)?`,
	`(.*[^a-z0-9])?(y{[a-z]+@[a-z0-9]+[.]com})([^a-z0-9].*)?`,
}

// Config parameterizes one load run.
type Config struct {
	// Target is the daemon's base URL (e.g. http://127.0.0.1:8080).
	Target string
	// Conns is the number of concurrent closed-loop connections.
	Conns int
	// Duration is how long the connections keep issuing requests.
	Duration time.Duration
	// Seed makes the workload mix reproducible; 0 selects a fixed seed.
	Seed uint64
	// MissEvery mixes one plan-cache-missing formula into every n
	// requests; 0 selects the default of 8. Negative disables misses.
	MissEvery int
	// BatchEvery mixes one fused multi-query request (/v1/extract-batch
	// with the fixed batchSpanners set) into every n requests; 0 disables
	// batches — the pre-batch workload mix, kept as the default so
	// CONCURRENCY/OVERLOAD snapshots stay comparable across PRs.
	BatchEvery int
	// Client optionally overrides the HTTP client (the in-process smoke
	// passes an httptest client). nil uses a pooled default.
	Client *http.Client
}

// Result is the measured outcome of one connection-count run — one row
// of the CONCURRENCY experiment.
type Result struct {
	Connections int     `json:"connections"`
	Requests    uint64  `json:"requests"`
	Errors      uint64  `json:"errors"`
	Seconds     float64 `json:"seconds"`
	ReqPerS     float64 `json:"req_per_s"`
	MBPerS      float64 `json:"mb_per_s"` // document bytes submitted per second
	P50MS       float64 `json:"p50_ms"`
	P90MS       float64 `json:"p90_ms"`
	P99MS       float64 `json:"p99_ms"`
}

// Snapshot is what spanload -json writes for the CONCURRENCY experiment.
type Snapshot struct {
	Experiment string   `json:"experiment"` // "CONCURRENCY"
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"num_cpu"`
	Target     string   `json:"target"`
	Results    []Result `json:"results"`
}

// docs builds the mixed document corpus: sentence-structured text with
// email matches sprinkled in, at three sizes spanning two orders of
// magnitude. Small documents stay under the engine's instrumentation
// threshold and large ones well above it, so a run exercises both
// paths.
func docs() []string {
	unit := "meet ann@example today. then bob@corp tomorrow! finally eve@host. plain filler sentence with no address?"
	sizes := []int{1 << 10, 16 << 10, 128 << 10}
	out := make([]string, len(sizes))
	for i, n := range sizes {
		out[i] = strings.Repeat(unit+" ", n/len(unit)+1)[:n]
	}
	return out
}

// runState is the state one measurement's connections share: the
// corpus, the aggregated counters and the latency histogram. All
// recording is lock-free, so connections never serialize on it.
type runState struct {
	cfg    Config
	client *http.Client
	corpus []string

	requests, errors, bytes obs.Counter
	latency                 obs.Histogram
	missSeq                 atomic.Uint64
}

// do issues one request of the mixed workload.
func (s *runState) do(rng *rand.Rand) {
	miss := s.cfg.MissEvery > 0 && rng.IntN(s.cfg.MissEvery) == 0
	batch := !miss && s.cfg.BatchEvery > 0 && rng.IntN(s.cfg.BatchEvery) == 0
	doc := s.corpus[rng.IntN(len(s.corpus))]
	streamed := rng.IntN(2) == 0

	var (
		resp *http.Response
		err  error
	)
	t0 := time.Now()
	switch {
	case batch:
		// One fused request answers the whole batchSpanners set with a
		// single document pass.
		body, _ := json.Marshal(map[string]any{"spanners": batchSpanners, "doc": doc})
		resp, err = s.client.Post(s.cfg.Target+"/v1/extract-batch", "application/json", bytes.NewReader(body))
	case miss:
		// A unique sequential plan: pays compilation, not evaluation.
		body, _ := json.Marshal(map[string]string{
			"spanner": missSpanner(s.missSeq.Add(1)), "doc": s.corpus[0],
		})
		resp, err = s.client.Post(s.cfg.Target+"/v1/extract", "application/json", bytes.NewReader(body))
	case streamed:
		// Raw body with formulas in the query: the daemon's streaming
		// ingest path (the hot plan's splitter is proven local).
		u := s.cfg.Target + "/v1/extract?spanner=" + url.QueryEscape(hotSpanner) +
			"&splitter=" + url.QueryEscape(hotSplitter)
		resp, err = s.client.Post(u, "application/octet-stream", strings.NewReader(doc))
	default:
		body, _ := json.Marshal(map[string]string{
			"spanner": hotSpanner, "splitter": hotSplitter, "doc": doc,
		})
		resp, err = s.client.Post(s.cfg.Target+"/v1/extract", "application/json", bytes.NewReader(body))
	}
	s.latency.RecordDuration(time.Since(t0))
	s.requests.Inc()
	if err != nil {
		s.errors.Inc()
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.errors.Inc()
		return
	}
	if !miss {
		s.bytes.Add(uint64(len(doc)))
	}
}

// Run drives cfg.Conns closed-loop connections for cfg.Duration and
// returns the aggregated measurement.
func Run(cfg Config) Result {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.MissEvery == 0 {
		cfg.MissEvery = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x5eed
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.Conns}}
	}

	st := &runState{cfg: cfg, client: client, corpus: docs()}
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(cfg.Duration)
	for c := 0; c < cfg.Conns; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(cfg.Seed, uint64(id)))
			for time.Now().Before(deadline) {
				st.do(rng)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()

	s := st.latency.Snapshot()
	const msPerNS = 1e-6
	res := Result{
		Connections: cfg.Conns,
		Requests:    st.requests.Load(),
		Errors:      st.errors.Load(),
		Seconds:     elapsed,
		P50MS:       s.Quantile(0.50) * msPerNS,
		P90MS:       s.Quantile(0.90) * msPerNS,
		P99MS:       s.Quantile(0.99) * msPerNS,
	}
	if elapsed > 0 {
		res.ReqPerS = float64(res.Requests) / elapsed
		res.MBPerS = float64(st.bytes.Load()) / 1e6 / elapsed
	}
	return res
}

// RunSweep runs one measurement per connection count and packages the
// CONCURRENCY snapshot.
func RunSweep(cfg Config, conns []int) Snapshot {
	snap := Snapshot{
		Experiment: "CONCURRENCY",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Target:     cfg.Target,
		Results:    make([]Result, 0, len(conns)),
	}
	for _, c := range conns {
		run := cfg
		run.Conns = c
		snap.Results = append(snap.Results, Run(run))
	}
	return snap
}
