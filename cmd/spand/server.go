package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/span"
)

// maxJSONBody bounds JSON request bodies (413 beyond it; see decodeJSON).
// Streamed documents (raw or multipart bodies) may be arbitrarily long on
// the incremental path; whatever the engine must hold in memory (whole
// buffered documents, the streaming carry-over) is bounded by its
// MaxDocBuffer budget and rejected with 413 beyond it.
const maxJSONBody = 64 << 20

// extractRequest is the JSON request body of /v1/extract and /v1/check.
type extractRequest struct {
	Spanner      string `json:"spanner"`
	SplitSpanner string `json:"split_spanner,omitempty"`
	Splitter     string `json:"splitter,omitempty"`
	Doc          string `json:"doc,omitempty"`
}

func (r extractRequest) engineRequest(tenant string) engine.Request {
	return engine.Request{Spanner: r.Spanner, SplitSpanner: r.SplitSpanner, Splitter: r.Splitter, Tenant: tenant}
}

// planResponse is the shared verdict section of responses.
type planResponse struct {
	Strategy      string            `json:"strategy"`
	Verdicts      core.PlanVerdicts `json:"verdicts"`
	CacheHit      bool              `json:"cache_hit"`
	PlanCompileMS float64           `json:"plan_compile_ms"`
}

type extractResponse struct {
	planResponse
	// Ingest reports how the document was consumed: "inline" (came with
	// the JSON request), "streamed" (segmented incrementally while
	// uploading) or "buffered" (read whole, then evaluated).
	Ingest string `json:"ingest"`
	// Execution reports the route this document took: "split" (segments
	// on the executor), "chunked" (the same at chunk grain: the spanner
	// once per run of consecutive segments, where the splitter is proven
	// cut-independent) or "whole" (one evaluation on the request
	// goroutine — every sequential plan, and a split-parallel plan's
	// documents too small to amortise the executor). Strategy is what the
	// verdicts justify; this is what ran.
	Execution string   `json:"execution"`
	Vars      []string `json:"vars"`
	Count     int      `json:"count"`
	// "tuples" follows as the final member, rendered by appendTuples.
}

func planSection(plan *engine.Plan, hit bool) planResponse {
	return planResponse{
		Strategy:      plan.Strategy.String(),
		Verdicts:      plan.Verdicts,
		CacheHit:      hit,
		PlanCompileMS: float64(plan.CompileTime.Microseconds()) / 1000,
	}
}

// appendTuples appends a relation's rows as JSON, [[[start,end],…],…] with
// one 1-based [start,end] pair per variable: byte for byte what
// encoding/json makes of [][][2]int, without reflecting over every row.
func appendTuples(dst []byte, rel *span.Relation) json.RawMessage {
	dst = append(slices.Grow(dst, 2+len(rel.Tuples)*(2+18*len(rel.Vars))), '[') // 7-digit offsets fit
	for i, t := range rel.Tuples {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, s := range t {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(dst, '['), int64(s.Start), 10)
			dst = strconv.AppendInt(append(dst, ','), int64(s.End), 10)
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	return append(dst, ']')
}

// serverConfig is the daemon-level (non-engine) serving policy.
type serverConfig struct {
	// limiter, when non-nil, guards /v1/extract and /v1/check with
	// admission control; /v1/stats and /metrics stay un-gated so
	// monitoring works precisely when the daemon is overloaded.
	limiter *admission.Limiter
	// deadline, when positive, bounds each guarded request end to end:
	// queue wait, planning and evaluation all draw from the same budget.
	deadline time.Duration
	// tenantHeader names the HTTP header carrying the tenant key for the
	// plan cache's per-tenant quotas. Empty disables tenant attribution.
	tenantHeader string
	// maxJSON bounds JSON request bodies; 0 selects maxJSONBody.
	maxJSON int64
}

type server struct {
	eng *engine.Engine
	m   *httpMetrics
	cfg serverConfig
}

// newServer wires the daemon's routes onto a fresh mux with no
// admission control — the permissive configuration embedded tests use.
func newServer(eng *engine.Engine) http.Handler {
	return newServerWith(eng, serverConfig{})
}

// newServerWith wires the daemon's routes onto a fresh mux. HTTP-level
// metrics live in the engine's registry, so GET /metrics exposes the
// whole stack's series on one page.
func newServerWith(eng *engine.Engine, cfg serverConfig) http.Handler {
	if cfg.maxJSON == 0 {
		cfg.maxJSON = maxJSONBody
	}
	s := &server{eng: eng, m: newHTTPMetrics(eng.Registry()), cfg: cfg}
	if cfg.limiter != nil {
		cfg.limiter.Register(eng.Registry())
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/extract", s.m.wrap("/v1/extract", s.guard(s.handleExtract)))
	mux.HandleFunc("POST /v1/extract-batch", s.m.wrap("/v1/extract-batch", s.guard(s.handleExtractBatch)))
	mux.HandleFunc("POST /v1/check", s.m.wrap("/v1/check", s.guard(s.handleCheck)))
	mux.HandleFunc("GET /v1/stats", s.m.wrap("/v1/stats", s.handleStats))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// guard applies the per-request deadline and the admission limiter to a
// work-bearing handler. Ordering matters: the deadline is installed
// first so time spent queued draws down the same budget as planning and
// evaluation — a request cannot burn its whole deadline in line and
// then start evaluating.
func (s *server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.deadline > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.deadline)
			defer cancel()
			r = r.WithContext(ctx)
		}
		if s.cfg.limiter != nil {
			release, err := s.cfg.limiter.Acquire(r.Context())
			if err != nil {
				s.writeShed(w, err)
				return
			}
			defer release()
		}
		h(w, r)
	}
}

// writeShed answers a request the limiter refused. Sheds proper (queue
// full, wait budget exceeded) get 429 with a Retry-After hint sized to
// the current queue; a request whose own context died while queued gets
// the same status its death would have earned downstream.
func (s *server) writeShed(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, admission.ErrQueueFull), errors.Is(err, admission.ErrQueueAged):
		retry := int(math.Ceil(s.cfg.limiter.RetryAfter().Seconds()))
		// The request body was never read; Connection: close skips the
		// keep-alive body drain so the shed costs microseconds even when
		// the client was mid-way through a large upload.
		w.Header().Set("Connection", "close")
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":           err.Error(),
			"retry_after_sec": retry,
		})
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
	default:
		writeError(w, 499, err) // client closed request while queued
	}
}

// tenantOf extracts the request's tenant key for the plan cache's
// per-tenant quotas.
func (s *server) tenantOf(r *http.Request) string {
	return r.Header.Get(s.cfg.tenantHeader) // "" for the empty name
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	encodeJSON(w, v)
}

// encodeJSON writes v as one line of JSON. A json.RawMessage is written as
// it stands: encoding/json would validate and compact it byte by byte,
// which costs more than reflecting over the rows it was built to spare.
func encodeJSON(w io.Writer, v any) {
	if raw, ok := v.(json.RawMessage); ok {
		_, _ = w.Write(append(raw, '\n'))
		return
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// appendJSON appends v's JSON as encodeJSON writes it, less the newline.
func appendJSON(dst []byte, v any) []byte {
	var b bytes.Buffer
	encodeJSON(&b, v)
	return append(dst, b.Bytes()[:b.Len()-1]...)
}

// openObject appends v's JSON object — v marshals to a non-empty one — up
// to its closing brace, and the key of one more member. The caller appends
// that member's value, JSON it renders itself, and the '}'.
func openObject(dst []byte, v any, key string) []byte {
	dst = appendJSON(dst, v)
	return append(dst[:len(dst)-1], `,"`+key+`":`...)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// bodyError answers a request whose body — or the part of it called what —
// could not be read or parsed: 413 naming the limit when it ran into its
// http.MaxBytesReader, else 400. Connection: close skips draining the rest
// of an oversized body (the metrics wrapper hides w from the reader's hook).
func bodyError(w http.ResponseWriter, what string, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		w.Header().Set("Connection", "close")
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%s exceeds %d bytes", what, tooBig.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", what, err))
}

// decodeJSON reads a JSON request body of at most limit bytes into v, or
// answers the request (see bodyError) and returns false. A limit that only
// truncated would have the decoder call a large inline document malformed.
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err != nil {
		bodyError(w, "JSON body", err)
	}
	return err == nil
}

// extraction is one parsed request of either extraction endpoint: the
// single query of /v1/extract or the formulas of /v1/extract-batch, and
// the document — inline, or the stream it arrives on.
type extraction struct {
	req      engine.Request // the single query; a batch's tenant
	batch    bool
	spanners []string // the batch's formulas
	doc      string
	stream   io.Reader // nil: doc is inline
}

// handleExtract serves POST /v1/extract. Three request shapes:
//
//   - application/json: {"spanner", "splitter", "split_spanner", "doc"}
//     with the document inline.
//   - multipart/form-data: fields spanner/splitter/split_spanner followed
//     by a "doc" part, which is streamed — the part is fed to the engine
//     chunk by chunk, so arbitrarily large documents never reside in
//     memory whole.
//   - anything else: the body is the document stream and the formulas
//     come from the query parameters ?spanner=…&splitter=…&split_spanner=….
func (s *server) handleExtract(w http.ResponseWriter, r *http.Request) {
	x := extraction{req: engine.Request{Tenant: s.tenantOf(r)}}
	ctype, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	switch ctype {
	case "application/json":
		var req extractRequest
		if !decodeJSON(w, r, s.cfg.maxJSON, &req) {
			return
		}
		x.req, x.doc = req.engineRequest(x.req.Tenant), req.Doc
	case "multipart/form-data":
		mr, err := r.MultipartReader()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		for x.stream == nil {
			part, err := mr.NextPart()
			if err == io.EOF {
				err = errors.New(`multipart body has no "doc" part`)
			}
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			if part.FormName() == "doc" {
				// Formula fields must precede the doc part so the plan
				// exists before streaming begins.
				x.stream = body{part, -1, http.NewResponseController(w)}
				continue
			}
			const maxFormula = 1 << 20
			val, err := io.ReadAll(http.MaxBytesReader(w, part, maxFormula))
			if err != nil {
				bodyError(w, fmt.Sprintf("multipart field %q", part.FormName()), err)
				return
			}
			switch part.FormName() {
			case "spanner":
				x.req.Spanner = string(val)
			case "splitter":
				x.req.Splitter = string(val)
			case "split_spanner":
				x.req.SplitSpanner = string(val)
			}
		}
	default:
		q := r.URL.Query()
		x.req = engine.Request{
			Spanner:      q.Get("spanner"),
			Splitter:     q.Get("splitter"),
			SplitSpanner: q.Get("split_spanner"),
			Tenant:       x.req.Tenant,
		}
		x.stream = body{r.Body, r.ContentLength, http.NewResponseController(w)}
	}
	s.extract(w, r, x)
}

// handleExtractBatch serves POST /v1/extract-batch: one document, N
// registered spanner formulas, one shared evaluation pass. Two request
// shapes:
//
//   - application/json: {"spanners": [...], "doc": "..."} with the
//     document inline.
//   - anything else: the body is the document and the formulas come from
//     repeated ?spanner=… query parameters.
//
// A formula that does not compile fails its own query, not the batch.
func (s *server) handleExtractBatch(w http.ResponseWriter, r *http.Request) {
	x := extraction{req: engine.Request{Tenant: s.tenantOf(r)}, batch: true}
	if ctype, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); ctype == "application/json" {
		var req extractBatchRequest
		if !decodeJSON(w, r, s.cfg.maxJSON, &req) {
			return
		}
		x.spanners, x.doc = req.Spanners, req.Doc
	} else {
		x.spanners, x.stream = r.URL.Query()["spanner"], body{r.Body, r.ContentLength, http.NewResponseController(w)}
	}
	s.extract(w, r, x)
}

// body is a request's body — the raw one, or a multipart doc part — as
// the document. Its Content-Length (-1 for a chunked body or a part:
// nothing) is the Len() the engine's buffered route sizes its one buffer
// from, and refuses by — unread — when it is already over -max-doc;
// net/http never delivers more than was declared. Its SetReadDeadline is
// the connection's, for the engine's stall guard (-read-timeout ⇒ 408);
// without one (an httptest.ResponseRecorder) the body is read unguarded.
type body struct {
	io.Reader
	n  int64
	rc *http.ResponseController
}

func (b body) Len() int                          { return int(min(b.n, math.MaxInt)) }
func (b body) SetReadDeadline(t time.Time) error { return b.rc.SetReadDeadline(t) }

// planErrStatus classifies a Plan error: a coalesced waiter can see its
// own context die while the plan is still compiling, which extractErrStatus
// maps (499 or 504). Anything else is a bad formula, or an empty batch.
func planErrStatus(err error) int {
	if status := extractErrStatus(err); status != http.StatusInternalServerError {
		return status
	}
	return http.StatusBadRequest
}

// extractErrStatus maps an evaluation-stage error to its HTTP status.
// Order matters: the typed engine errors are checked before the bare
// context sentinels they wrap.
func extractErrStatus(err error) int {
	switch {
	case errors.Is(err, engine.ErrReadStalled):
		return http.StatusRequestTimeout // 408: the client stopped sending
	case errors.Is(err, engine.ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout // 504: the server's deadline budget ran out
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	case errors.Is(err, engine.ErrDocTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, io.ErrUnexpectedEOF):
		return http.StatusBadRequest // a body short of its Content-Length, a doc part without its closing boundary
	}
	return http.StatusInternalServerError
}

// extract plans x, evaluates its document — an inline one directly, not
// through chunked ingestion — and answers, for both endpoints: one JSON
// body or, when the client accepts multipart/mixed, a stream of parts —
// "plan", written and flushed before the document is read; the result
// ("tuples", or a batch's "results") on success; and always a terminal
// "end" epilogue. The epilogue is what makes a failure after the 200
// header explicit: when evaluation fails (the engine surfaces
// context.Canceled, a deadline, a stalled, oversized or truncated upload)
// the stream still ends with a parseable error part carrying the status
// the failure would have had, instead of an ambiguous truncation — a
// client that never sees an "end" part knows the response is incomplete.
func (s *server) extract(w http.ResponseWriter, r *http.Request, x extraction) {
	var plan *engine.Plan
	var hit bool
	var err error
	if x.batch {
		plan, hit, err = s.eng.PlanBatch(r.Context(), engine.BatchRequest{Spanners: x.spanners, Tenant: x.req.Tenant})
	} else {
		plan, hit, err = s.eng.Plan(r.Context(), x.req)
	}
	if err != nil {
		writeError(w, planErrStatus(err), err)
		return
	}
	ingest := "inline"
	if x.stream != nil {
		ingest = "buffered"
		if s.eng.WillStream(plan) {
			ingest = "streamed"
		}
	}
	var mw *multipart.Writer
	part := func(name string, v any) {
		h := textproto.MIMEHeader{}
		h.Set("Content-Type", "application/json")
		h.Set("Content-Disposition", `inline; name="`+name+`"`)
		pw, err := mw.CreatePart(h)
		if err != nil {
			return // client gone; nothing left to say
		}
		encodeJSON(pw, v)
	}
	if acceptsMultipart(r) {
		// The response header goes out before the document has been read, so
		// the connection must be full-duplex: without this, net/http drains
		// the unconsumed request body at WriteHeader time — eating the
		// document the engine is about to evaluate.
		rc := http.NewResponseController(w)
		_ = rc.EnableFullDuplex()
		mw = multipart.NewWriter(w)
		defer mw.Close()
		w.Header().Set("Content-Type", "multipart/mixed; boundary="+mw.Boundary())
		w.WriteHeader(http.StatusOK)
		part("plan", x.planPart(plan, hit, ingest))
		_ = rc.Flush() // the client sees the verdict while the document uploads
	}
	results, exec, err := s.eng.Answer(r.Context(), plan, x.doc, x.stream)
	switch {
	case err != nil && mw != nil:
		part("end", epilogue{Status: "error", Error: err.Error(), HTTPStatus: extractErrStatus(err)})
	case err != nil:
		if x.stream != nil {
			// The document body was abandoned mid-read (stall, deadline,
			// size cap, cancellation) or ended early. The connection cannot
			// be reused, and — decisive for the 408 path — without
			// Connection: close the server would block draining a body the
			// client has stopped sending before the error could reach the
			// wire.
			w.Header().Set("Connection", "close")
		}
		writeError(w, extractErrStatus(err), err)
	case mw != nil:
		result, count := x.answer(nil, plan, results)
		name, end := "tuples", epilogue{Status: "ok", Count: count, Execution: exec.String()}
		if x.batch {
			name, end.Execution = "results", ""
		}
		part(name, result)
		part("end", end)
	default:
		body, _ := x.answer(x.head(plan, hit, ingest, exec, results), plan, results)
		writeJSON(w, http.StatusOK, append(body, '}'))
	}
}

// planPart is x's multipart "plan" part: the plan section with the ingest
// mode and the variables, or a batch's response before evaluation — the
// per-query formulas, variables and compile errors.
func (x extraction) planPart(plan *engine.Plan, hit bool, ingest string) any {
	if x.batch {
		queries, _ := appendQueries(x.head(plan, hit, ingest, 0, nil), plan, x.spanners, nil)
		return append(queries, '}')
	}
	return struct {
		planResponse
		Ingest string   `json:"ingest"`
		Vars   []string `json:"vars"`
	}{planSection(plan, hit), ingest, plan.Vars()}
}

// head opens x's JSON response up to the key of its final member —
// "tuples", or a batch's "queries" — whose value answer appends.
func (x extraction) head(plan *engine.Plan, hit bool, ingest string, exec engine.Execution, results []engine.BatchResult) []byte {
	if x.batch {
		return openObject(nil, extractBatchResponse{CacheHit: hit, PlanCompileMS: float64(plan.CompileTime.Microseconds()) / 1000}, "queries")
	}
	return openObject(nil, extractResponse{
		planResponse: planSection(plan, hit),
		Ingest:       ingest,
		Execution:    exec.String(),
		Vars:         plan.Vars(),
		Count:        results[0].Rel.Len(),
	}, "tuples")
}

// answer appends x's evaluated result to dst — the query's tuples, or a
// batch's queries — and returns it with its tuple count.
func (x extraction) answer(dst []byte, plan *engine.Plan, results []engine.BatchResult) (json.RawMessage, int) {
	if x.batch {
		return appendQueries(dst, plan, x.spanners, results)
	}
	return appendTuples(dst, results[0].Rel), results[0].Rel.Len()
}

// acceptsMultipart reports whether the client asked for the streamed
// multipart/mixed response shape.
func acceptsMultipart(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		for _, part := range strings.Split(accept, ",") {
			mt, _, err := mime.ParseMediaType(strings.TrimSpace(part))
			if err == nil && mt == "multipart/mixed" {
				return true
			}
		}
	}
	return false
}

// epilogue is the final part of every multipart/mixed extraction
// response: status "ok" with the tuple count, or status "error" with
// the failure and the HTTP status the error would have carried on the
// buffered path.
type epilogue struct {
	Status string `json:"status"`
	Count  int    `json:"count,omitempty"`
	// Execution is the route the document took ("whole", "split" or
	// "chunked"; see extractResponse). It is here and not in the "plan"
	// part because a streamed document's route is known only once enough
	// of it has arrived; batch epilogues omit it.
	Execution string `json:"execution,omitempty"`
	Error     string `json:"error,omitempty"`
	// HTTPStatus is advisory: by the time the epilogue is written the
	// 200 header is long gone, so mid-stream failures surface here.
	HTTPStatus int `json:"http_status,omitempty"`
}

// extractBatchRequest is the JSON request body of /v1/extract-batch:
// one document, many spanner formulas, answered by one fused pass
// (engine.PlanBatch, then Engine.Answer like /v1/extract).
type extractBatchRequest struct {
	Spanners []string `json:"spanners"`
	Doc      string   `json:"doc,omitempty"`
}

// batchQueryResult is one member query's slice of the batch response:
// its tuples, or its compile error. Errors are per-slot by design — one
// bad formula in a batch must not fail its siblings (the whole-batch
// statuses are reserved for document-level failures: 413, 504, 429).
type batchQueryResult struct {
	Spanner string   `json:"spanner"`
	Vars    []string `json:"vars,omitempty"`
	Count   int      `json:"count"`
	Error   string   `json:"error,omitempty"`
	// "tuples" follows as the final member when the query found any (a
	// slot has an error or tuples, never both); see appendQueries.
}

// extractBatchResponse is the batch response up to its final member,
// "queries": a []batchQueryResult in the multipart "plan" part, rendered
// by appendQueries once the tuples are in.
type extractBatchResponse struct {
	CacheHit      bool    `json:"cache_hit"`
	PlanCompileMS float64 `json:"plan_compile_ms"`
}

// appendQueries appends the batch's queries as a JSON array and returns it
// with their summed tuple count. With results, each query carries its
// count and — as the final member "tuples", when it found any — its rows;
// without, the array is the pre-evaluation view of the multipart "plan"
// part: formulas and their memoized compile verdicts.
func appendQueries(dst []byte, plan *engine.Plan, spanners []string, results []engine.BatchResult) (json.RawMessage, int) {
	dst, total := append(dst, '['), 0
	for i, src := range spanners {
		if i > 0 {
			dst = append(dst, ',')
		}
		q := batchQueryResult{Spanner: src, Vars: plan.BatchVars(i)}
		if err := plan.BatchErr(i); err != nil { // what results[i].Err repeats
			q.Error = err.Error()
		}
		if results != nil && results[i].Rel != nil && results[i].Rel.Len() > 0 {
			rel := results[i].Rel
			q.Count, total = rel.Len(), total+rel.Len()
			dst = append(appendTuples(openObject(dst, q, "tuples"), rel), '}')
			continue
		}
		dst = appendJSON(dst, q)
	}
	return append(dst, ']'), total
}

// handleCheck serves POST /v1/check: it returns the plan's verdicts
// (split-correctness / self-splittability / disjointness / locality)
// without evaluating anything. "local" is the splitter's cut independence
// (core.Splitter.IsLocal): with a yes on the pair itself, it tells a
// client that this daemon runs the pair's large documents "chunked" and
// streams their raw and multipart bodies. Verdicts are served from the
// plan cache, so repeated and concurrent checks of the same pair run the
// PSPACE procedures once.
func (s *server) handleCheck(w http.ResponseWriter, r *http.Request) {
	var req extractRequest
	if !decodeJSON(w, r, s.cfg.maxJSON, &req) {
		return
	}
	plan, hit, err := s.eng.Plan(r.Context(), req.engineRequest(s.tenantOf(r)))
	if err != nil {
		writeError(w, planErrStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, planSection(plan, hit))
}

// statsResponse is the GET /v1/stats body: the engine's snapshot
// (counters, per-stage time shares, executor and localizer statistics)
// plus the daemon's HTTP-level view — requests in flight and
// per-endpoint latency percentiles. Everything is read in one pass, so
// one response is one consistent snapshot.
type statsResponse struct {
	engine.Stats
	InFlight  int64                    `json:"in_flight"`
	Endpoints map[string]endpointStats `json:"endpoints"`
	// Admission is the overload front door's state: tokens, queue depth,
	// shed counters and the current Retry-After hint. Absent when the
	// daemon runs without a limiter.
	Admission *admission.Stats `json:"admission,omitempty"`
}

// handleStats serves GET /v1/stats: cache hit rate, throughput counters
// (documents total, streamed incrementally, evaluated whole and chunked),
// worker configuration, the pipeline-stage time breakdown and
// per-endpoint latency percentiles.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Stats:     s.eng.Stats(),
		InFlight:  s.m.inFlight.Load(),
		Endpoints: s.m.snapshot(),
	}
	if s.cfg.limiter != nil {
		st := s.cfg.limiter.Snapshot()
		resp.Admission = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format: every series of the engine's registry — HTTP, engine stages,
// plan cache, executor, evaluation core.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.eng.Registry().WritePrometheus(w)
}
