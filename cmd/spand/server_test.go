package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	spanners "repro"
	"repro/internal/engine"
)

const (
	emailFormula    = `(.*[^a-z0-9])?(y{[a-z0-9]+@[a-z0-9]+})([^a-z0-9].*)?`
	sentenceFormula = "(x{[^.!?\\n]*})([.!?\\n][^.!?\\n]*)*|" +
		"[^.!?\\n]*([.!?\\n][^.!?\\n]*)*[.!?\\n](x{[^.!?\\n]*})([.!?\\n][^.!?\\n]*)*"
	testDoc = "write ann@example today. then bob@corp tomorrow! finally eve@host."
)

// splitDoc is testDoc repeated to ~66 KiB, twice the size below which the
// engine evaluates a split-correct plan's document whole: the tests that
// assert on the segmenter, the executor or streamed ingestion use it,
// because testDoc itself never reaches them.
var splitDoc = strings.Repeat(testDoc+" ", 1000)

type extractResult struct {
	Strategy string `json:"strategy"`
	Verdicts struct {
		Disjoint       string `json:"disjoint"`
		SelfSplittable string `json:"self_splittable"`
		SplitCorrect   string `json:"split_correct"`
		Local          string `json:"local"`
	} `json:"verdicts"`
	CacheHit  bool       `json:"cache_hit"`
	Ingest    string     `json:"ingest"`
	Execution string     `json:"execution"`
	Vars      []string   `json:"vars"`
	Count     int        `json:"count"`
	Tuples    [][][2]int `json:"tuples"`
}

func startDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(newServer(engine.New(engine.Config{Workers: 4, Batch: 2, ChunkSize: 8})))
	t.Cleanup(ts.Close)
	return ts
}

func decodeExtract(t *testing.T, resp *http.Response) extractResult {
	t.Helper()
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out extractResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	return out
}

// oneShotTuples is the ground truth: the façade's ParallelEval on the
// whole document.
func oneShotTuples(t *testing.T, doc string) [][][2]int {
	t.Helper()
	p := spanners.MustCompile(emailFormula)
	s := spanners.MustCompileSplitter(sentenceFormula)
	rel := spanners.ParallelEval(p, s, doc, 4)
	rel.Dedupe()
	out := make([][][2]int, 0, rel.Len())
	for _, tup := range rel.Tuples {
		row := make([][2]int, len(tup))
		for i, sp := range tup {
			row[i] = [2]int{sp.Start, sp.End}
		}
		out = append(out, row)
	}
	return out
}

func TestExtractJSONAndPlanCacheHit(t *testing.T) {
	ts := startDaemon(t)
	post := func(doc string) extractResult {
		body, _ := json.Marshal(map[string]string{
			"spanner": emailFormula, "splitter": sentenceFormula, "doc": doc,
		})
		resp, err := http.Post(ts.URL+"/v1/extract", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return decodeExtract(t, resp)
	}
	first := post(splitDoc)
	if first.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	if first.Strategy != "split-parallel" || first.Execution != "chunked" {
		t.Fatalf("strategy = %q, execution = %q (verdicts %+v), want split-parallel and chunked", first.Strategy, first.Execution, first.Verdicts)
	}
	if want := oneShotTuples(t, splitDoc); !reflect.DeepEqual(first.Tuples, want) {
		t.Fatalf("tuples = %v, want %v", first.Tuples, want)
	}
	second := post(splitDoc)
	if !second.CacheHit {
		t.Fatal("second identical request missed the plan cache")
	}
	if !reflect.DeepEqual(second.Tuples, first.Tuples) {
		t.Fatal("cached plan changed the result")
	}
	// The same cached plan evaluates a small document whole, and says so.
	small := post(testDoc)
	if !small.CacheHit || small.Strategy != "split-parallel" || small.Execution != "whole" {
		t.Fatalf("small document: cache_hit = %v, strategy = %q, execution = %q; want the cached split-parallel plan run whole",
			small.CacheHit, small.Strategy, small.Execution)
	}
	if want := oneShotTuples(t, testDoc); !reflect.DeepEqual(small.Tuples, want) {
		t.Fatalf("small document: tuples = %v, want %v", small.Tuples, want)
	}

	// The hit must be observable via /v1/stats.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st engine.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.PlanCache.Hits < 1 || st.PlanCache.Misses != 1 {
		t.Fatalf("stats = %+v, want ≥1 hit and exactly 1 miss", st.PlanCache)
	}
	if st.Documents != 3 || st.WholeDocs != 1 || st.ChunkedDocs != 2 || st.Segments != 0 || st.Executor.Segments == 0 {
		t.Fatalf("stats = %+v, want 3 documents, 1 evaluated whole and 2 chunked, and chunks but no spans counted", st)
	}
}

// TestPlanChurnSharesSplitter sends two plan-churn-shaped requests — the
// same splitter, the spanner's capture renamed — and finds both plan-cache
// misses that share one splitter: splitter_hits is 1 in /v1/stats and on
// /metrics.
func TestPlanChurnSharesSplitter(t *testing.T) {
	ts := startDaemon(t)
	for _, v := range []string{"y", "z"} {
		body, _ := json.Marshal(map[string]string{
			"spanner": strings.Replace(emailFormula, "y{", v+"{", 1), "splitter": sentenceFormula, "doc": testDoc,
		})
		resp, err := http.Post(ts.URL+"/v1/extract", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if out := decodeExtract(t, resp); out.CacheHit || out.Strategy != "split-parallel" {
			t.Fatalf("capture %s: cache_hit = %v, strategy = %q; want a split-parallel plan-cache miss", v, out.CacheHit, out.Strategy)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		PlanCache map[string]any `json:"plan_cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanCache["splitter_hits"] != 1.0 || st.PlanCache["misses"] != 2.0 || st.PlanCache["hits"] != 0.0 {
		t.Fatalf("plan_cache = %v, want splitter_hits 1 over 2 misses", st.PlanCache)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "\nspanners_plan_cache_splitter_hits_total 1\n") {
		t.Fatal("/metrics does not report spanners_plan_cache_splitter_hits_total 1")
	}
}

// slowChunks streams the document a few bytes per Read with no declared
// length, forcing chunked transfer encoding and multi-chunk ingestion.
type slowChunks struct {
	s string
	n int
}

func (r *slowChunks) Read(p []byte) (int, error) {
	if len(r.s) == 0 {
		return 0, io.EOF
	}
	n := r.n
	if n > len(r.s) {
		n = len(r.s)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.s[:n])
	r.s = r.s[n:]
	return n, nil
}

func TestExtractStreamedBodyEqualsOneShot(t *testing.T) {
	ts := startDaemon(t)
	url := ts.URL + "/v1/extract?spanner=" + url.QueryEscape(emailFormula) + "&splitter=" + url.QueryEscape(sentenceFormula)
	// A body that ends inside the engine's look-ahead is evaluated whole;
	// a longer one is segmented while it uploads. Same plan, same ingest.
	for _, tc := range []struct {
		doc       string
		read      int
		execution string
	}{{testDoc, 3, "whole"}, {splitDoc, 509, "chunked"}} {
		req, err := http.NewRequest("POST", url, &slowChunks{s: tc.doc, n: tc.read})
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got := decodeExtract(t, resp)
		if want := oneShotTuples(t, tc.doc); !reflect.DeepEqual(got.Tuples, want) {
			t.Fatalf("%d-byte body: streamed tuples = %v, want one-shot ParallelEval %v", len(tc.doc), got.Tuples, want)
		}
		if got.Ingest != "streamed" || got.Execution != tc.execution {
			t.Fatalf("%d-byte body: ingest = %q, execution = %q; want streamed and %s", len(tc.doc), got.Ingest, got.Execution, tc.execution)
		}
	}
}

func TestExtractMultipartStream(t *testing.T) {
	ts := startDaemon(t)
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.WriteField("spanner", emailFormula)
	mw.WriteField("splitter", sentenceFormula)
	fw, _ := mw.CreateFormFile("doc", "doc.txt")
	io.Copy(fw, strings.NewReader(testDoc))
	mw.Close()
	resp, err := http.Post(ts.URL+"/v1/extract", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeExtract(t, resp)
	if want := oneShotTuples(t, testDoc); !reflect.DeepEqual(got.Tuples, want) {
		t.Fatalf("multipart tuples = %v, want %v", got.Tuples, want)
	}
}

func TestCheckConcurrentSingleFlight(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	ts := httptest.NewServer(newServer(eng))
	defer ts.Close()
	body, _ := json.Marshal(map[string]string{
		"spanner": emailFormula, "splitter": sentenceFormula,
	})
	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, b)
				return
			}
			var out extractResult
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if out.Verdicts.SelfSplittable != "yes" || out.Verdicts.Disjoint != "yes" || out.Verdicts.Local != "yes" {
				errs <- fmt.Errorf("unexpected verdicts %+v", out.Verdicts)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := eng.Stats().PlanCache
	if st.Misses != 1 {
		t.Fatalf("misses = %d: the decision procedures ran more than once", st.Misses)
	}
	if st.Hits+st.Coalesced != n-1 {
		t.Fatalf("hits+coalesced = %d, want %d", st.Hits+st.Coalesced, n-1)
	}
}

// rawStream POSTs the document as a chunked raw body with formulas in
// the query string, the shape that exercises the daemon's streaming
// ingest decision.
func rawStream(t *testing.T, ts *httptest.Server, spanner, splitter, doc string) extractResult {
	t.Helper()
	u := ts.URL + "/v1/extract?spanner=" + url.QueryEscape(spanner) + "&splitter=" + url.QueryEscape(splitter)
	req, err := http.NewRequest("POST", u, &slowChunks{s: doc, n: 3})
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return decodeExtract(t, resp)
}

func TestProvenLocalSplitterStreamsByDefault(t *testing.T) {
	// The sentence splitter is proven local by the plan's verdict, so the
	// daemon must segment the upload incrementally — correctness by
	// proof — and report it: ingest "streamed", verdict local=yes, and the
	// streamed-documents counter in /v1/stats.
	eng := engine.New(engine.Config{Workers: 2, ChunkSize: 8})
	ts := httptest.NewServer(newServer(eng))
	defer ts.Close()
	got := rawStream(t, ts, emailFormula, sentenceFormula, splitDoc)
	if got.Ingest != "streamed" {
		t.Fatalf("default daemon ingest = %q, want streamed (verdicts %+v)", got.Ingest, got.Verdicts)
	}
	if got.Verdicts.Local != "yes" {
		t.Fatalf("verdicts = %+v, want local=yes", got.Verdicts)
	}
	if want := oneShotTuples(t, splitDoc); !reflect.DeepEqual(got.Tuples, want) {
		t.Fatalf("streamed tuples = %v, want one-shot %v", got.Tuples, want)
	}
	st := eng.Stats()
	if st.StreamedDocs != 1 {
		t.Fatalf("stats = %+v, want exactly one streamed document", st)
	}
}

func TestUnprovenSplitterBuffersByDefault(t *testing.T) {
	// A disjoint splitter the locality procedure refuses ('.'-separated
	// blocks minus the first) must be buffered whole, and the ingest mode
	// says so.
	const nonLocalSplitter = `[^.]*\.([^.]*\.)*(x{[^.]*})(\.[^.]*)*`
	const doc = "x@y.a@b.c@d."
	def := httptest.NewServer(newServer(engine.New(engine.Config{Workers: 2, ChunkSize: 8})))
	defer def.Close()
	buffered := rawStream(t, def, emailFormula, nonLocalSplitter, doc)
	if buffered.Ingest != "buffered" {
		t.Fatalf("default daemon ingest = %q, want buffered (verdicts %+v)", buffered.Ingest, buffered.Verdicts)
	}
	if buffered.Verdicts.Disjoint != "yes" || buffered.Verdicts.Local != "no" {
		t.Fatalf("verdicts = %+v, want disjoint=yes local=no", buffered.Verdicts)
	}
}

func TestExtractInlineDocOverBudgetIs413(t *testing.T) {
	// Regression: the inline JSON path previously bypassed MaxDocBuffer
	// (only the reader paths enforced it), so an engine budget did not
	// bound this endpoint's memory.
	ts := httptest.NewServer(newServer(engine.New(engine.Config{Workers: 2, MaxDocBuffer: 128})))
	defer ts.Close()
	body, _ := json.Marshal(map[string]string{
		"spanner": emailFormula,
		"doc":     strings.Repeat("x", 256),
	})
	resp, err := http.Post(ts.URL+"/v1/extract", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d (%s), want 413", resp.StatusCode, b)
	}
	// An in-budget document on the same daemon still extracts.
	body, _ = json.Marshal(map[string]string{"spanner": emailFormula, "doc": testDoc})
	resp, err = http.Post(ts.URL+"/v1/extract", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeExtract(t, resp); got.Count == 0 {
		t.Fatal("in-budget document extracted nothing")
	}
}

// TestExtractBadFormula: a formula that does not parse is a 400 — and so
// is one whose nested +s would expand into a tree too large to compile,
// and one with more variables than an automaton supports, whose answer is
// the typed ErrTooManyVariables naming both counts, not the recovered
// panic of the automaton build.
func TestExtractBadFormula(t *testing.T) {
	ts := startDaemon(t)
	var tooManyVars strings.Builder
	for i := 0; i < 33; i++ {
		fmt.Fprintf(&tooManyVars, "(v%d{a})", i)
	}
	for _, c := range []struct{ spanner, names string }{
		{"y{[", ""},
		{"y{a" + strings.Repeat("+", 40) + "}", ""},
		{tooManyVars.String(), "too many variables: 33 variables, at most 32"},
	} {
		body, _ := json.Marshal(map[string]string{"spanner": c.spanner, "doc": "x"})
		resp, err := http.Post(ts.URL+"/v1/extract", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d (%s), want 400", c.spanner, resp.StatusCode, b)
		}
		if !strings.Contains(string(b), c.names) {
			t.Fatalf("%s: body %s does not name %q", c.spanner, b, c.names)
		}
	}
}
