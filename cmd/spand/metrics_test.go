package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
)

// extractBody is a request whose document is long enough to take the
// split route, so the segment stage and the executor have work to report.
func extractBody() []byte { return extractBodyOf(splitDoc) }

func extractBodyOf(doc string) []byte {
	body, _ := json.Marshal(map[string]string{
		"spanner": emailFormula, "splitter": sentenceFormula, "doc": doc,
	})
	return body
}

func mustPost(t *testing.T, url string, body []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	io.Copy(io.Discard, resp.Body)
}

// TestMetricsPrometheusFormat drives traffic through the daemon and
// checks that GET /metrics is well-formed Prometheus text exposition:
// every sample line parses, every family has exactly one HELP/TYPE
// header before its samples, histogram buckets are cumulative and end
// at le="+Inf" equal to _count, and the series the dashboards key on
// are present with the expected values.
func TestMetricsPrometheusFormat(t *testing.T) {
	ts := startDaemon(t)
	mustPost(t, ts.URL+"/v1/extract", extractBody())
	mustPost(t, ts.URL+"/v1/extract", extractBody())
	mustPost(t, ts.URL+"/v1/extract", extractBodyOf(testDoc)) // small: evaluated whole
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	values := map[string]float64{}
	helped := map[string]bool{}
	typed := map[string]string{}
	var lastFamily string
	for ln, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			f := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(f) != 2 || f[1] == "" {
				t.Fatalf("line %d: malformed HELP %q", ln+1, line)
			}
			if helped[f[0]] {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, f[0])
			}
			helped[f[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(f) != 2 {
				t.Fatalf("line %d: malformed TYPE %q", ln+1, line)
			}
			switch f[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, f[1])
			}
			if typed[f[0]] != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, f[0])
			}
			typed[f[0]] = f[1]
			lastFamily = f[0]
		default:
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				t.Fatalf("line %d: malformed sample %q", ln+1, line)
			}
			name, val := line[:sp], line[sp+1:]
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", ln+1, val, err)
			}
			base := name
			if i := strings.IndexByte(name, '{'); i >= 0 {
				base = name[:i]
				if !strings.HasSuffix(name, "}") {
					t.Fatalf("line %d: unterminated label set %q", ln+1, name)
				}
			}
			family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(base, "_bucket"), "_sum"), "_count")
			if !helped[family] && !helped[base] {
				t.Fatalf("line %d: sample %s has no HELP header", ln+1, name)
			}
			if family != lastFamily && base != lastFamily {
				t.Fatalf("line %d: sample %s not grouped under its family header (%s)", ln+1, name, lastFamily)
			}
			values[name] = v
		}
	}

	if got := values[`spand_http_requests_total{endpoint="/v1/extract"}`]; got != 3 {
		t.Fatalf("extract request counter = %v, want 3", got)
	}
	if got := values["spanners_engine_documents_total"]; got != 3 {
		t.Fatalf("documents counter = %v, want 3", got)
	}
	if got := values["spanners_engine_documents_whole_total"]; got != 1 {
		t.Fatalf("whole-documents counter = %v, want 1 (the small document)", got)
	}
	if got := values["spanners_engine_documents_chunked_total"]; got != 2 {
		t.Fatalf("chunked-documents counter = %v, want 2 (the large documents)", got)
	}
	// The chunked route cuts chunks without segmenting: the executor
	// counts its units, and nothing counts splitter spans.
	if v, ok := values["spanners_engine_segments_total"]; !ok || v != 0 || values["spanners_exec_segments_total"] == 0 {
		t.Fatalf("segments counter = %v (present %v), executor units = %v; want 0 spans and some units after two chunked extractions",
			v, ok, values["spanners_exec_segments_total"])
	}
	if values["spanners_plan_cache_hits_total"] < 2 {
		t.Fatalf("cache hits = %v, want ≥ 2", values["spanners_plan_cache_hits_total"])
	}
	// The skip gate's stand-downs are exported beside the skipped bytes.
	for _, name := range []string{"spanners_eval_prefilter_stand_downs_total", "spanners_multi_fused_stand_downs_total"} {
		if _, ok := values[name]; !ok || typed[name] != "counter" {
			t.Fatalf("/metrics has no counter %s", name)
		}
	}

	// Three identical requests are one plan-cache miss: the decision
	// procedures ran once.
	if got := values[`spanners_engine_stage_seconds_count{stage="decide"}`]; got != 1 {
		t.Fatalf("decide stage _count = %v, want 1 (one cold compilation)", got)
	}
	if values[`spanners_engine_stage_seconds_sum{stage="decide"}`] <= 0 {
		t.Fatal("decide stage _sum is zero after a cold compilation")
	}

	// Histogram contract: buckets cumulative and monotone, +Inf == _count.
	for _, h := range []string{
		`spand_http_request_seconds{endpoint="/v1/extract"}`,
		`spanners_engine_stage_seconds{stage="eval"}`,
	} {
		base := h[:strings.IndexByte(h, '{')]
		labels := h[strings.IndexByte(h, '{')+1 : len(h)-1]
		count := values[base+"_count{"+labels+"}"]
		if count != 3 {
			t.Fatalf("%s _count = %v, want 3", h, count)
		}
		inf := values[base+"_bucket{"+labels+`,le="+Inf"}`]
		if inf != count {
			t.Fatalf("%s +Inf bucket = %v, want _count %v", h, inf, count)
		}
		var prev float64
		for name, v := range values {
			if strings.HasPrefix(name, base+"_bucket{"+labels) && v < prev {
				// Map order is random; just check every bucket ≤ count.
				t.Fatalf("%s bucket %s = %v exceeds later buckets", h, name, v)
			}
			if strings.HasPrefix(name, base+"_bucket{"+labels) && v > count {
				t.Fatalf("%s bucket %s = %v exceeds _count %v", h, name, v, count)
			}
		}
	}
}

// statsBody is the decoded /v1/stats response.
type statsBody struct {
	engine.Stats
	InFlight  int64                    `json:"in_flight"`
	Endpoints map[string]endpointStats `json:"endpoints"`
}

func getStats(t *testing.T, url string) statsBody {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsBody
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStatsStageBreakdown checks the enriched /v1/stats: per-stage time
// shares that sum to one over the top-level stages, latency percentiles
// per endpoint, the in-flight gauge and the executor section.
func TestStatsStageBreakdown(t *testing.T) {
	ts := startDaemon(t)
	for i := 0; i < 4; i++ {
		mustPost(t, ts.URL+"/v1/extract", extractBody())
	}
	st := getStats(t, ts.URL)

	for _, stage := range []string{"plan", "segment", "eval", "merge", "localize", "sim", "decide"} {
		if _, ok := st.Stages[stage]; !ok {
			t.Fatalf("stages missing %q: %v", stage, st.Stages)
		}
	}
	var topShare float64
	for _, stage := range []string{"plan", "segment", "eval"} {
		s := st.Stages[stage]
		if s.Count == 0 {
			t.Fatalf("stage %q has zero recorded intervals", stage)
		}
		if s.P50MS <= 0 || s.P99MS < s.P50MS {
			t.Fatalf("stage %q percentiles p50=%v p99=%v", stage, s.P50MS, s.P99MS)
		}
		topShare += s.Share
	}
	if topShare < 0.999 || topShare > 1.001 {
		t.Fatalf("top-level stage shares sum to %v, want 1", topShare)
	}
	if st.Stages["merge"].Count == 0 {
		t.Fatal("merge stage has zero recorded runs after split extractions")
	}

	ep, ok := st.Endpoints["/v1/extract"]
	if !ok {
		t.Fatalf("endpoints missing /v1/extract: %v", st.Endpoints)
	}
	if ep.Count != 4 || ep.Errors != 0 {
		t.Fatalf("extract endpoint = %+v, want 4 requests, 0 errors", ep)
	}
	if ep.P50MS <= 0 || ep.P99MS < ep.P50MS || ep.P999MS < ep.P99MS {
		t.Fatalf("extract percentiles not ordered: %+v", ep)
	}
	// The stats request itself is in flight while it snapshots.
	if st.InFlight < 1 {
		t.Fatalf("in_flight = %d, want ≥ 1", st.InFlight)
	}
	if st.Executor.Runs == 0 || st.Executor.Segments == 0 {
		t.Fatalf("executor = %+v, want runs and segments", st.Executor)
	}

	// Errors are counted per endpoint.
	resp, err := http.Post(ts.URL+"/v1/extract", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := getStats(t, ts.URL).Endpoints["/v1/extract"].Errors; got != 1 {
		t.Fatalf("errors = %d after a bad request, want 1", got)
	}
}

// TestStatsDecideStage checks the nested decide stage: the time inside
// the paper's decision procedures, recorded once per cold compilation.
// It is non-zero after a plan-cache miss, a sub-interval of plan, and a
// cache hit leaves it exactly as it was.
func TestStatsDecideStage(t *testing.T) {
	ts := startDaemon(t)
	if d := getStats(t, ts.URL).Stages["decide"]; d.Count != 0 || d.TotalMS != 0 {
		t.Fatalf("decide before any request = %+v, want zero", d)
	}
	mustPost(t, ts.URL+"/v1/extract", extractBody())
	miss := getStats(t, ts.URL).Stages
	d := miss["decide"]
	if d.Count != 1 || d.TotalMS <= 0 || d.Share <= 0 {
		t.Fatalf("decide after one miss = %+v, want one non-zero interval", d)
	}
	if d.TotalMS >= miss["plan"].TotalMS {
		t.Fatalf("decide %v ms is not inside plan %v ms", d.TotalMS, miss["plan"].TotalMS)
	}
	for i := 0; i < 3; i++ {
		mustPost(t, ts.URL+"/v1/extract", extractBody())
	}
	hit := getStats(t, ts.URL).Stages
	if got := hit["decide"]; got.Count != 1 || got.TotalMS != d.TotalMS {
		t.Fatalf("decide after three hits = %+v, want unchanged %+v", got, d)
	}
	if hit["plan"].Count != 4 {
		t.Fatalf("plan count = %d, want 4", hit["plan"].Count)
	}
}

// TestConcurrentExtractAndStats hammers /v1/extract, /v1/stats and
// /metrics concurrently. Run under -race (as CI does) it proves the
// stats snapshot and the Prometheus renderer race cleanly with the
// recording hot path.
func TestConcurrentExtractAndStats(t *testing.T) {
	ts := httptest.NewServer(newServer(engine.New(engine.Config{Workers: 4, Batch: 2, ChunkSize: 8})))
	defer ts.Close()
	body := extractBody()
	const clients, iters = 4, 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				mustPost(t, ts.URL+"/v1/extract", body)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				st := getStats(t, ts.URL)
				// The document counter increments at request start and the
				// eval stage records at request end, so eval lags documents
				// by the requests in flight — but never exceeds them.
				if st.Stages["eval"].Count > st.Documents {
					t.Errorf("eval stage count %d exceeds documents %d", st.Stages["eval"].Count, st.Documents)
					return
				}
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	st := getStats(t, ts.URL)
	if st.Documents != clients*iters {
		t.Fatalf("documents = %d, want %d", st.Documents, clients*iters)
	}
	if got := st.Endpoints["/v1/extract"].Count; got != clients*iters {
		t.Fatalf("extract endpoint count = %d, want %d", got, clients*iters)
	}
}
