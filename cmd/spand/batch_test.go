package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
)

const abBatchFormula = `.*(x{ab}).*|(x{ab}).*`

type batchResult struct {
	CacheHit      bool    `json:"cache_hit"`
	PlanCompileMS float64 `json:"plan_compile_ms"`
	Queries       []struct {
		Spanner string     `json:"spanner"`
		Vars    []string   `json:"vars"`
		Count   int        `json:"count"`
		Tuples  [][][2]int `json:"tuples"`
		Error   string     `json:"error"`
	} `json:"queries"`
}

func postBatch(t *testing.T, url string, spanners []string, doc string, hdr map[string]string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"spanners": spanners, "doc": doc})
	req, err := http.NewRequest("POST", url+"/v1/extract-batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBatch(t *testing.T, resp *http.Response) batchResult {
	t.Helper()
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out batchResult
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	return out
}

// TestExtractBatchJSONHappyPath checks the fused endpoint's results per
// query against the single-query /v1/extract on the same document.
func TestExtractBatchJSONHappyPath(t *testing.T) {
	ts := startDaemon(t)
	doc := "ab " + testDoc
	spanners := []string{emailFormula, abBatchFormula}
	got := decodeBatch(t, postBatch(t, ts.URL, spanners, doc, nil))
	if len(got.Queries) != 2 {
		t.Fatalf("got %d queries, want 2", len(got.Queries))
	}
	for i, q := range got.Queries {
		if q.Error != "" {
			t.Fatalf("query %d: unexpected error %q", i, q.Error)
		}
		body, _ := json.Marshal(map[string]string{"spanner": spanners[i], "doc": doc})
		resp, err := http.Post(ts.URL+"/v1/extract", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		want := decodeExtract(t, resp)
		if q.Count != want.Count || !reflect.DeepEqual(q.Tuples, want.Tuples) {
			t.Fatalf("query %d (%s): batch %d/%v != single %d/%v",
				i, spanners[i], q.Count, q.Tuples, want.Count, want.Tuples)
		}
		if q.Count == 0 {
			t.Fatalf("query %d: expected matches on %q", i, doc)
		}
	}
	// Same batch again: served from the plan cache.
	if again := decodeBatch(t, postBatch(t, ts.URL, spanners, doc, nil)); !again.CacheHit {
		t.Fatal("second identical batch should be a plan-cache hit")
	}
}

// TestExtractBatchOneBadFormula is the per-query error contract: a batch
// containing a malformed formula answers 200 with that slot carrying the
// compile error and the sibling slots carrying their tuples — not a 400
// for the whole batch.
func TestExtractBatchOneBadFormula(t *testing.T) {
	ts := startDaemon(t)
	got := decodeBatch(t, postBatch(t, ts.URL,
		[]string{abBatchFormula, "(x{unclosed"}, "ab ab", nil))
	if got.Queries[0].Error != "" || got.Queries[0].Count != 2 {
		t.Fatalf("good slot = %+v, want 2 matches and no error", got.Queries[0])
	}
	if got.Queries[1].Error == "" || got.Queries[1].Count != 0 {
		t.Fatalf("bad slot = %+v, want a compile error and no tuples", got.Queries[1])
	}
}

// TestExtractBatchEmptyIs400 checks the one whole-batch planning error: a
// batch with no formulas at all cannot be planned.
func TestExtractBatchEmptyIs400(t *testing.T) {
	ts := startDaemon(t)
	resp := postBatch(t, ts.URL, nil, "doc", nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 for an empty batch", resp.StatusCode)
	}
}

// TestExtractBatchMultipartDeadlineEpilogue is the PR 8 contract on the
// batch endpoint: the 200 header and the plan part are on the wire when
// the server's deadline fires mid-batch (here: while the raw document
// body is still trickling in), and the stream must still terminate with
// an explicit error epilogue carrying the 504, not a silent truncation.
func TestExtractBatchMultipartDeadlineEpilogue(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	ts := httptest.NewServer(newServerWith(eng, serverConfig{deadline: 60 * time.Millisecond}))
	defer ts.Close()

	pr, pw := io.Pipe()
	go func() {
		defer pw.Close()
		for i := 0; i < 50; i++ {
			if _, err := pw.Write([]byte("drip. ")); err != nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	q := url.Values{"spanner": {emailFormula, abBatchFormula}}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/extract-batch?"+q.Encode(), pr)
	req.Header.Set("Accept", "multipart/mixed")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (the header precedes the failure)", resp.StatusCode)
	}
	parts := readMultipartResponse(t, resp)
	var plan struct {
		Queries []struct {
			Spanner string `json:"spanner"`
			Error   string `json:"error"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(parts["plan"], &plan); err != nil || len(plan.Queries) != 2 {
		t.Fatalf("plan part %s: err=%v, want 2 queries", parts["plan"], err)
	}
	var end epilogue
	if err := json.Unmarshal(parts["end"], &end); err != nil {
		t.Fatalf("bad epilogue %s: %v", parts["end"], err)
	}
	if end.Status != "error" || end.Error == "" {
		t.Fatalf("epilogue = %+v, want an explicit error", end)
	}
	if end.HTTPStatus != http.StatusGatewayTimeout {
		t.Fatalf("epilogue http_status = %d, want 504", end.HTTPStatus)
	}
	if _, ok := parts["results"]; ok {
		t.Fatal("failed batch must not emit a results part")
	}
}

// TestExtractBatchMultipartOKPath checks the streamed response shape on
// success: plan part (with per-query vars), results part, ok epilogue
// with the summed tuple count.
func TestExtractBatchMultipartOKPath(t *testing.T) {
	ts := startDaemon(t)
	body, _ := json.Marshal(map[string]any{
		"spanners": []string{emailFormula, abBatchFormula, "(x{bad"},
		"doc":      "ab " + testDoc,
	})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/extract-batch", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "multipart/mixed")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	parts := readMultipartResponse(t, resp)
	var results []struct {
		Spanner string `json:"spanner"`
		Count   int    `json:"count"`
		Error   string `json:"error"`
	}
	if err := json.Unmarshal(parts["results"], &results); err != nil || len(results) != 3 {
		t.Fatalf("results part %s: err=%v, want 3 queries", parts["results"], err)
	}
	if results[0].Count != 3 || results[1].Count != 1 || results[2].Error == "" {
		t.Fatalf("results = %+v, want 3 emails, 1 ab, 1 compile error", results)
	}
	var end epilogue
	if err := json.Unmarshal(parts["end"], &end); err != nil {
		t.Fatalf("bad epilogue %s: %v", parts["end"], err)
	}
	if end.Status != "ok" || end.Count != 4 {
		t.Fatalf("epilogue = %+v, want ok with 4 total tuples", end)
	}
}

// TestExtractBatchShed429 puts the batch endpoint behind the same
// admission front door as /v1/extract: with the lone token held, a batch
// request is shed 429 with a Retry-After hint, and admitted again once
// the token frees.
func TestExtractBatchShed429(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	lim := admission.New(admission.Config{Tokens: 1, Queue: -1}) // no queue: admit or shed
	ts := httptest.NewServer(newServerWith(eng, serverConfig{limiter: lim}))
	defer ts.Close()

	release := holdToken(t, ts.URL)
	defer release()

	resp := postBatch(t, ts.URL, []string{emailFormula}, testDoc, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}

	release()
	ok := decodeBatch(t, postBatch(t, ts.URL, []string{emailFormula}, testDoc, nil))
	if len(ok.Queries) != 1 || ok.Queries[0].Count != 3 {
		t.Fatalf("post-release batch = %+v, want 3 emails", ok.Queries)
	}
}

// stalledBatch posts a raw-body batch whose upload sends a few bytes and
// then goes silent, to a daemon with a 50 ms read timeout. The silence
// ends after 3 s whatever happens, so a daemon that sits the stall out
// answers — with a status the caller rejects — instead of hanging the
// test.
func stalledBatch(t *testing.T, hdr map[string]string) *http.Response {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 2, ReadTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(newServer(eng))
	t.Cleanup(ts.Close)
	pr, pw := io.Pipe()
	watchdog := time.AfterFunc(3*time.Second, func() { pw.Close() })
	t.Cleanup(func() { // runs before ts.Close, which waits for the handler
		watchdog.Stop()
		pw.Close()
	})
	go pw.Write([]byte("some bytes, then silence. "))
	q := url.Values{"spanner": {emailFormula, abBatchFormula}}
	req, _ := http.NewRequest("POST", ts.URL+"/v1/extract-batch?"+q.Encode(), pr)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestExtractBatchStalledUploadMapsTo408: a raw batch body goes through
// the engine's stall guard like /v1/extract's — a client that stops
// sending gets 408 and loses its connection (and its admission token)
// instead of holding both until it hangs up.
func TestExtractBatchStalledUploadMapsTo408(t *testing.T) {
	resp := stalledBatch(t, nil)
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status = %d (%s), want 408 for a stalled upload", resp.StatusCode, b)
	}
	if !resp.Close {
		t.Error("408 without Connection: close — the server would block draining the stalled body")
	}
}

// TestExtractBatchMultipartStallEpilogue is the multipart twin: the 200
// header is on the wire when the upload stalls, so the 408 rides in the
// "end" epilogue.
func TestExtractBatchMultipartStallEpilogue(t *testing.T) {
	resp := stalledBatch(t, map[string]string{"Accept": "multipart/mixed"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (the header precedes the failure)", resp.StatusCode)
	}
	parts := readMultipartResponse(t, resp)
	var end epilogue
	if err := json.Unmarshal(parts["end"], &end); err != nil {
		t.Fatalf("bad epilogue %s: %v", parts["end"], err)
	}
	if end.Status != "error" || end.HTTPStatus != http.StatusRequestTimeout {
		t.Fatalf("epilogue = %+v, want an error with http_status 408", end)
	}
	if _, ok := parts["results"]; ok {
		t.Fatal("failed batch must not emit a results part")
	}
}

// countingReader counts the bytes handed out of an endless document.
type countingReader struct{ n int }

func (c *countingReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	c.n += len(p)
	return len(p), nil
}

// TestExtractBatchRawOverBudgetIs413: the engine's MaxDocBuffer bounds
// what a raw batch body may pin, not the 64 MiB JSON limit — the upload
// is refused as soon as it outgrows the budget, having been read no
// further than the budget plus the chunk that crossed it. The handler
// is called directly so the count is the server's reads alone, with no
// socket buffers in between.
func TestExtractBatchRawOverBudgetIs413(t *testing.T) {
	const budget, chunk = 128 << 10, 64 << 10
	h := newServer(engine.New(engine.Config{Workers: 2, MaxDocBuffer: budget, ChunkSize: chunk}))
	body := &countingReader{}
	q := url.Values{"spanner": {emailFormula}}
	req := httptest.NewRequest("POST", "/v1/extract-batch?"+q.Encode(), io.LimitReader(body, 8<<20))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d (%s), want 413", rec.Code, rec.Body)
	}
	if body.n > budget+chunk {
		t.Errorf("read %d bytes of an over-budget body, want ≤ %d (budget + one chunk)", body.n, budget+chunk)
	}
}

// TestOneQueryBatchAnswersLikeExtract pins the one request path at the
// daemon: /v1/extract?spanner=X and /v1/extract-batch?spanner=X return the
// same tuple bytes and count, from a raw body and from inline JSON, and
// under Accept: multipart/mixed the same result tuples and epilogue count.
func TestOneQueryBatchAnswersLikeExtract(t *testing.T) {
	ts := startDaemon(t)
	doc := "ab " + testDoc + " ab"
	type query struct {
		Count  int             `json:"count"`
		Tuples json.RawMessage `json:"tuples"`
	}
	post := func(endpoint, formula string, raw, multi bool) *http.Response {
		t.Helper()
		var body []byte
		u, ctype := ts.URL+endpoint, "application/json"
		switch {
		case raw:
			u, ctype, body = u+"?"+url.Values{"spanner": {formula}}.Encode(), "application/octet-stream", []byte(doc)
		case endpoint == "/v1/extract":
			body, _ = json.Marshal(map[string]string{"spanner": formula, "doc": doc})
		default:
			body, _ = json.Marshal(map[string]any{"spanners": []string{formula}, "doc": doc})
		}
		req, _ := http.NewRequest("POST", u, bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		if multi {
			req.Header.Set("Accept", "multipart/mixed")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s: status %d: %s", endpoint, resp.StatusCode, b)
		}
		return resp
	}
	unmarshal := func(data []byte, v any) {
		t.Helper()
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("bad JSON %s: %v", data, err)
		}
	}
	for _, formula := range []string{emailFormula, abBatchFormula} {
		for _, raw := range []bool{false, true} {
			what := fmt.Sprintf("%s, raw=%v", formula, raw)
			var single query
			var batch struct{ Queries []query }
			for endpoint, v := range map[string]any{"/v1/extract": &single, "/v1/extract-batch": &batch} {
				resp := post(endpoint, formula, raw, false)
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				unmarshal(data, v)
			}
			if len(batch.Queries) != 1 || single.Count == 0 || batch.Queries[0].Count != single.Count || !bytes.Equal(batch.Queries[0].Tuples, single.Tuples) {
				t.Fatalf("%s: /v1/extract-batch %+v, /v1/extract %+v", what, batch.Queries, single)
			}

			resp := post("/v1/extract", formula, raw, true)
			singleParts := readMultipartResponse(t, resp)
			resp.Body.Close()
			resp = post("/v1/extract-batch", formula, raw, true)
			batchParts := readMultipartResponse(t, resp)
			resp.Body.Close()
			var singleEnd, batchEnd epilogue
			var results []query
			unmarshal(singleParts["end"], &singleEnd)
			unmarshal(batchParts["end"], &batchEnd)
			unmarshal(batchParts["results"], &results)
			if singleEnd.Status != "ok" || batchEnd.Status != "ok" || batchEnd.Count != singleEnd.Count || singleEnd.Count != single.Count {
				t.Fatalf("%s: multipart epilogues %+v (batch) and %+v (extract), want ok with %d tuples", what, batchEnd, singleEnd, single.Count)
			}
			if len(results) != 1 || !bytes.Equal(results[0].Tuples, bytes.TrimSpace(singleParts["tuples"])) || !bytes.Equal(results[0].Tuples, single.Tuples) {
				t.Fatalf("%s: multipart results %s, tuples part %s", what, batchParts["results"], singleParts["tuples"])
			}
		}
	}
}
