package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/span"
)

// The request and response shapes as they were when encoding/json decoded
// and rendered them by reflection: the byte-for-byte reference for the
// one-pass decoder and the append encoder.
type (
	extractRequest struct {
		Spanner      string `json:"spanner"`
		SplitSpanner string `json:"split_spanner,omitempty"`
		Splitter     string `json:"splitter,omitempty"`
		Doc          string `json:"doc,omitempty"`
	}
	extractBatchRequest struct {
		Spanners []string `json:"spanners"`
		Doc      string   `json:"doc,omitempty"`
	}
	planResponse struct {
		Strategy      string            `json:"strategy"`
		Verdicts      core.PlanVerdicts `json:"verdicts"`
		CacheHit      bool              `json:"cache_hit"`
		PlanCompileMS float64           `json:"plan_compile_ms"`
	}
	extractResponse struct {
		planResponse
		Ingest    string   `json:"ingest"`
		Execution string   `json:"execution"`
		Vars      []string `json:"vars"`
		Count     int      `json:"count"`
	}
	extractBatchResponse struct {
		CacheHit      bool    `json:"cache_hit"`
		PlanCompileMS float64 `json:"plan_compile_ms"`
	}
	epilogue struct {
		Status     string `json:"status"`
		Count      int    `json:"count,omitempty"`
		Execution  string `json:"execution,omitempty"`
		Error      string `json:"error,omitempty"`
		HTTPStatus int    `json:"http_status,omitempty"`
	}

	oldSpan            [2]int
	oldExtractResponse struct {
		extractResponse
		Tuples [][]oldSpan `json:"tuples"`
	}
	oldBatchQuery struct {
		Spanner string      `json:"spanner"`
		Vars    []string    `json:"vars,omitempty"`
		Count   int         `json:"count"`
		Tuples  [][]oldSpan `json:"tuples,omitempty"`
		Error   string      `json:"error,omitempty"`
	}
	oldBatchResponse struct {
		extractBatchResponse
		Queries []oldBatchQuery `json:"queries"`
	}
)

func planSection(plan *engine.Plan, hit bool) planResponse {
	return planResponse{
		Strategy:      plan.Strategy.String(),
		Verdicts:      plan.Verdicts,
		CacheHit:      hit,
		PlanCompileMS: float64(plan.CompileTime.Microseconds()) / 1000,
	}
}

func oldTuples(rel *span.Relation) [][]oldSpan {
	out := make([][]oldSpan, len(rel.Tuples))
	for i, t := range rel.Tuples {
		out[i] = make([]oldSpan, len(t))
		for j, s := range t {
			out[i][j] = oldSpan{s.Start, s.End}
		}
	}
	return out
}

// encoded is v as encoding/json writes it for the daemon: one line, with
// SetEscapeHTML(false).
func encoded(v any) string {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err)
	}
	return b.String()
}

func TestAppendTuplesMatchesEncodingJSON(t *testing.T) {
	rels := map[string]*span.Relation{
		"empty":    span.NewRelation("y"),
		"no-vars":  {Tuples: []span.Tuple{{}}},
		"one":      {Vars: []string{"y"}, Tuples: []span.Tuple{{{Start: 1, End: 4}}, {{Start: 9, End: 12}}}},
		"two-vars": {Vars: []string{"a", "b"}, Tuples: []span.Tuple{{{Start: 1, End: 1}, {Start: 7, End: 7}}}},
		"wide":     {Vars: []string{"y"}, Tuples: []span.Tuple{{{Start: math.MaxInt32, End: math.MaxInt64}}}},
	}
	rng := rand.New(rand.NewSource(21))
	for name, nv := range map[string]int{"random-1": 1, "random-3": 3} {
		rel := span.NewRelation([]string{"a", "b", "c"}[:nv]...)
		for i := rng.Intn(2000); i > 0; i-- {
			tup := make(span.Tuple, len(rel.Vars))
			for j := range tup {
				tup[j].Start = 1 + rng.Intn(1<<uint(rng.Intn(31)))
				tup[j].End = tup[j].Start + rng.Intn(100)
			}
			rel.Tuples = append(rel.Tuples, tup)
		}
		rels[name] = rel
	}
	// A real plan, with a note holding what SetEscapeHTML(false) keeps.
	compiled, _, err := engine.New(engine.Config{Workers: 1}).Plan(context.Background(), engine.Request{Spanner: emailFormula, Splitter: sentenceFormula})
	if err != nil {
		t.Fatal(err)
	}
	plan := *compiled
	plan.Verdicts.Note, plan.CompileTime = "a<b & c>d", 250*time.Microsecond
	for name, rel := range rels {
		want, err := json.Marshal(oldTuples(rel))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendTuples(nil, rel); string(got) != string(want) {
			t.Errorf("%s: appendTuples = %.200s, encoding/json %.200s", name, got, want)
		}
		// The whole response: the head, then the tuples as its final member.
		head := extractResponse{
			planResponse: planSection(&plan, false),
			Ingest:       "streamed", Execution: "chunked", Vars: plan.Vars(), Count: rel.Len(),
		}
		results := []engine.BatchResult{{Rel: rel}}
		got := string(append(appendTuples(extraction{}.head(&plan, false, "streamed", engine.ExecChunked, results), rel), '}', '\n'))
		if want := encoded(oldExtractResponse{head, oldTuples(rel)}); got != want {
			t.Errorf("%s: response = %.300s, encoding/json %.300s", name, got, want)
		}
	}
	if got := string(appendTuples(nil, rels["empty"])); got != "[]" {
		t.Errorf("empty relation renders as %s, want []", got)
	}
}

// TestAppendQueriesMatchesEncodingJSON holds the batch response, as the
// JSON body and as the multipart "results" part, to the old shape on a
// batch with every kind of slot: tuples, no tuples (the member is
// omitted), a duplicate, a formula encoding/json would escape, and one
// that does not compile.
func TestAppendQueriesMatchesEncodingJSON(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	spanners := []string{emailFormula, `.*(y{<&>}).*`, "(x{bad", `.*(z{qqq}).*`, emailFormula}
	plan, _, err := eng.PlanBatch(context.Background(), engine.BatchRequest{Spanners: spanners})
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.ExtractBatch(context.Background(), plan, testDoc+" <&> ")
	if err != nil {
		t.Fatal(err)
	}
	resp := extractBatchResponse{CacheHit: true, PlanCompileMS: float64(plan.CompileTime.Microseconds()) / 1000}
	old := oldBatchResponse{extractBatchResponse: resp}
	wantTotal := 0
	for i, src := range spanners {
		q := oldBatchQuery{Spanner: src}
		if r := results[i]; r.Err != nil {
			q.Error = r.Err.Error()
		} else {
			q.Vars, q.Count, q.Tuples = r.Rel.Vars, r.Rel.Len(), oldTuples(r.Rel)
		}
		wantTotal += q.Count
		old.Queries = append(old.Queries, q)
	}
	if old.Queries[0].Count != 3 || old.Queries[1].Count != 1 || old.Queries[2].Error == "" || old.Queries[3].Count != 0 {
		t.Fatalf("batch results %+v: want 3 addresses, 1 escaped match, 1 compile error, 0 tuples", old.Queries)
	}
	queries, total := appendQueries(nil, plan, spanners, results)
	if got, want := string(queries)+"\n", encoded(old.Queries); got != want || total != wantTotal {
		t.Errorf("results part = %s (total %d)\nencoding/json %s (total %d)", got, total, want, wantTotal)
	}
	x := extraction{batch: true, spanners: spanners}
	body, _ := appendQueries(x.head(plan, true, "inline", 0, nil), plan, spanners, results)
	if got, want := string(body)+"}\n", encoded(old); got != want {
		t.Errorf("response = %s\nencoding/json %s", got, want)
	}
	// The pre-evaluation view: formulas, variables and compile errors.
	for i := range old.Queries {
		old.Queries[i].Count, old.Queries[i].Tuples = 0, nil
	}
	planPart, _ := appendQueries(nil, plan, spanners, nil)
	if got, want := string(planPart)+"\n", encoded(old.Queries); got != want {
		t.Errorf("plan part = %s\nencoding/json %s", got, want)
	}
}

// TestResponsesMatchEncodingJSON drives every response shape through the
// handler — the JSON extract, batch and check bodies, the multipart
// plan/tuples/results/end parts, and the 400, 413, 429 and 504 bodies — and
// holds each to encoding/json's rendering of the old structs, filled from
// the engine's own plan and results (an error body from its message).
func TestResponsesMatchEncodingJSON(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	srv := newServerWith(eng, serverConfig{maxJSON: 4 << 10})
	ctx := context.Background()
	post := func(h http.Handler, path, accept string, body any) *httptest.ResponseRecorder {
		b, _ := json.Marshal(body)
		r := httptest.NewRequest("POST", path, bytes.NewReader(b))
		r.Header.Set("Content-Type", "application/json")
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}
	check := func(what string, got []byte, want any) {
		t.Helper()
		if w := encoded(want); string(got) != w {
			t.Errorf("%s:\n got %s\nwant %s", what, got, w)
		}
	}
	parts := func(w *httptest.ResponseRecorder) map[string][]byte {
		t.Helper()
		_, params, err := mime.ParseMediaType(w.Header().Get("Content-Type"))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		mr := multipart.NewReader(w.Body, params["boundary"])
		for p, err := mr.NextPart(); err == nil; p, err = mr.NextPart() {
			_, dp, _ := mime.ParseMediaType(p.Header.Get("Content-Disposition"))
			out[dp["name"]], _ = io.ReadAll(p)
		}
		return out
	}
	errorBody := func(what string, w *httptest.ResponseRecorder, status int) {
		t.Helper()
		var e map[string]string
		if w.Code != status || json.Unmarshal(w.Body.Bytes(), &e) != nil || e["error"] == "" {
			t.Fatalf("%s: status %d %s, want %d with an error", what, w.Code, w.Body, status)
		}
		check(what, w.Body.Bytes(), e)
	}

	doc := "x\"<&>\u2028\x01 " + testDoc
	single := map[string]string{"spanner": emailFormula, "splitter": sentenceFormula, "doc": doc}
	post(srv, "/v1/extract", "", single) // the plan is cached from here on
	plan, _, err := eng.Plan(ctx, engine.Request{Spanner: emailFormula, Splitter: sentenceFormula})
	if err != nil {
		t.Fatal(err)
	}
	rel := must(eng.Extract(ctx, plan, doc))
	head := extractResponse{planSection(plan, true), "inline", "whole", plan.Vars(), rel.Len()}
	check("extract", post(srv, "/v1/extract", "", single).Body.Bytes(), oldExtractResponse{head, oldTuples(rel)})
	check("check", post(srv, "/v1/check", "", single).Body.Bytes(), planSection(plan, true))
	p := parts(post(srv, "/v1/extract", "multipart/mixed", single))
	check("plan part", p["plan"], struct {
		planResponse
		Ingest string   `json:"ingest"`
		Vars   []string `json:"vars"`
	}{planSection(plan, true), "inline", plan.Vars()})
	check("tuples part", p["tuples"], oldTuples(rel))
	check("end part", p["end"], epilogue{Status: "ok", Count: rel.Len(), Execution: "whole"})

	spanners := []string{emailFormula, `.*(y{<&>}).*`, "(x{bad", `.*(z{qqq}).*`}
	batch := map[string]any{"spanners": spanners, "doc": doc}
	post(srv, "/v1/extract-batch", "", batch)
	bplan, _, err := eng.PlanBatch(ctx, engine.BatchRequest{Spanners: spanners})
	if err != nil {
		t.Fatal(err)
	}
	results := must(eng.ExtractBatch(ctx, bplan, doc))
	old := oldBatchResponse{extractBatchResponse: extractBatchResponse{true, float64(bplan.CompileTime.Microseconds()) / 1000}}
	pre := old
	total := 0
	for i, src := range spanners {
		q := oldBatchQuery{Spanner: src, Vars: bplan.BatchVars(i)}
		if err := bplan.BatchErr(i); err != nil {
			q.Error = err.Error()
		}
		pre.Queries = append(pre.Queries, q)
		if r := results[i].Rel; r != nil && r.Len() > 0 {
			q.Count, q.Tuples = r.Len(), oldTuples(r)
		}
		total += q.Count
		old.Queries = append(old.Queries, q)
	}
	check("batch", post(srv, "/v1/extract-batch", "", batch).Body.Bytes(), old)
	p = parts(post(srv, "/v1/extract-batch", "multipart/mixed", batch))
	check("batch plan part", p["plan"], pre)
	check("results part", p["results"], old.Queries)
	check("batch end part", p["end"], epilogue{Status: "ok", Count: total})

	errorBody("400, a bad formula", post(srv, "/v1/extract", "", map[string]string{"spanner": "(x{bad"}), http.StatusBadRequest)
	errorBody("400, a bad body", post(srv, "/v1/check", "", "not an object"), http.StatusBadRequest)
	errorBody("413", post(srv, "/v1/extract", "", map[string]string{"doc": strings.Repeat("x", 5<<10)}), http.StatusRequestEntityTooLarge)
	late := newServerWith(engine.New(engine.Config{Workers: 1}), serverConfig{deadline: time.Nanosecond})
	errorBody("504", post(late, "/v1/extract", "", single), http.StatusGatewayTimeout)
	var end epilogue
	small := newServer(engine.New(engine.Config{Workers: 1, MaxDocBuffer: 8}))
	p = parts(post(small, "/v1/extract", "multipart/mixed", single))
	if json.Unmarshal(p["end"], &end) != nil || end.HTTPStatus != http.StatusRequestEntityTooLarge {
		t.Fatalf("error end part %s, want http_status 413", p["end"])
	}
	check("error end part", p["end"], end)

	lim := admission.New(admission.Config{Tokens: 1, Queue: -1})
	release, err := lim.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	w := post(newServerWith(engine.New(engine.Config{Workers: 1}), serverConfig{limiter: lim}), "/v1/extract", "", single)
	var shed struct {
		Error         string `json:"error"`
		RetryAfterSec int    `json:"retry_after_sec"`
	}
	if w.Code != http.StatusTooManyRequests || json.Unmarshal(w.Body.Bytes(), &shed) != nil || shed.Error == "" {
		t.Fatalf("429: status %d %s", w.Code, w.Body)
	}
	check("429", w.Body.Bytes(), map[string]any{"error": shed.Error, "retry_after_sec": shed.RetryAfterSec})
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
