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
	"strconv"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
)

// maxJSONBody bounds JSON request bodies (413 beyond it; see readJSON).
// Streamed documents (raw or multipart bodies) may be arbitrarily long on
// the incremental path; whatever the engine must hold in memory (whole
// buffered documents, the streaming carry-over) is bounded by its
// MaxDocBuffer budget and rejected with 413 beyond it.
const maxJSONBody = 64 << 20

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
		body := appendString([]byte(`{"error":`), err.Error())
		writeJSON(w, http.StatusTooManyRequests, append(strconv.AppendInt(append(body, `,"retry_after_sec":`...), int64(retry), 10), '}'))
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

// writeJSON answers with body, one line of JSON.
func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, append(appendString([]byte(`{"error":`), err.Error()), '}'))
}

// bodyError answers a request whose body — or the part of it called what —
// could not be read or parsed: 413 naming the limit when it ran past it;
// 408, 504 or 499 when the stall guard gave the read up (see
// extractErrStatus); else 400. Connection: close skips draining the rest
// of a body that was not read to its end (the metrics wrapper hides w from
// http.MaxBytesReader's hook).
func bodyError(w http.ResponseWriter, what string, err error) {
	var tooBig *http.MaxBytesError
	switch status := extractErrStatus(err); {
	case errors.As(err, &tooBig):
		w.Header().Set("Connection", "close")
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%s exceeds %d bytes", what, tooBig.Limit))
	case status == http.StatusRequestTimeout || status == http.StatusGatewayTimeout || status == 499:
		w.Header().Set("Connection", "close")
		writeError(w, status, err)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", what, err))
	}
}

// readJSON reads a request's inline JSON body into x, or answers the
// request (see bodyError) and returns false. The body is read through the
// engine's stall guard, into one buffer sized to its Content-Length — but
// to no more than 16 MiB, what a client can make the daemon set aside
// without sending — and of at most s.cfg.maxJSON bytes: a limit that only
// truncated would call a large inline document malformed. Then it is
// decoded (see decode).
func (s *server) readJSON(w http.ResponseWriter, r *http.Request, x *extraction) bool {
	g, _, stop := s.eng.Guard(r.Context(), body{r.Body, r.ContentLength, http.NewResponseController(w)})
	b := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), s.cfg.maxJSON, 16<<20)+bytes.MinRead))
	_, err := b.ReadFrom(io.LimitReader(g, s.cfg.maxJSON+1))
	stop()
	over := int64(b.Len()) > s.cfg.maxJSON
	if err == nil {
		err = x.decode(b.Bytes()[:min(int64(b.Len()), s.cfg.maxJSON)], over)
	}
	if over && err == io.ErrUnexpectedEOF {
		err = &http.MaxBytesError{Limit: s.cfg.maxJSON}
	}
	if err != nil {
		bodyError(w, "JSON body", err)
	}
	return err == nil
}

// readMultipart reads a multipart request's formula fields into x, up to
// its "doc" part, which becomes x's stream; or answers the request and
// returns false. The fields and part headers are read through one engine
// stall guard over the body, stopped once the doc part arrives: the
// engine guards the document itself.
func (s *server) readMultipart(w http.ResponseWriter, r *http.Request, x *extraction) bool {
	rc := http.NewResponseController(w)
	g, _, stop := s.eng.Guard(r.Context(), body{r.Body, r.ContentLength, rc})
	defer stop()
	r.Body = struct {
		io.Reader
		io.Closer
	}{g, r.Body}
	mr, err := r.MultipartReader()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	for {
		part, err := mr.NextPart()
		switch {
		case err == io.EOF:
			writeError(w, http.StatusBadRequest, errors.New(`multipart body has no "doc" part`))
			return false
		case err != nil:
			if status := extractErrStatus(err); status != http.StatusBadRequest && status != http.StatusInternalServerError {
				bodyError(w, "multipart body", err) // the stall guard gave the read up: 408, 504 or 499
			} else {
				writeError(w, http.StatusBadRequest, err)
			}
			return false
		case part.FormName() == "doc":
			// Formula fields must precede the doc part so the plan
			// exists before streaming begins.
			x.stream = body{part, -1, rc}
			return true
		}
		const maxFormula = 1 << 20
		val, err := io.ReadAll(http.MaxBytesReader(w, part, maxFormula))
		if err != nil {
			bodyError(w, fmt.Sprintf("multipart field %q", part.FormName()), err)
			return false
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
}

// extraction is one parsed request of either extraction endpoint: the
// single query of /v1/extract or the formulas of /v1/extract-batch, and
// the document — inline, or the stream it arrives on. /v1/check reads the
// query of /v1/extract.
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
		if !s.readJSON(w, r, &x) {
			return
		}
	case "multipart/form-data":
		if !s.readMultipart(w, r, &x) {
			return
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
		if !s.readJSON(w, r, &x) {
			return
		}
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
// "end" epilogue: {"status":"ok"} with the tuple count (left out when 0)
// and, but for a batch, the execution — known only once enough of a
// streamed document has arrived — or {"status":"error"} with the error
// and the HTTP status it would have had, advisory since the 200 header is
// long gone. The epilogue is what makes a failure after the 200
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
	part := func(name string, body []byte) {
		h := textproto.MIMEHeader{}
		h.Set("Content-Type", "application/json")
		h.Set("Content-Disposition", `inline; name="`+name+`"`)
		pw, err := mw.CreatePart(h)
		if err != nil {
			return // client gone; nothing left to say
		}
		_, _ = pw.Write(append(body, '\n'))
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
		end := appendString([]byte(`{"status":"error","error":`), err.Error())
		part("end", append(strconv.AppendInt(append(end, `,"http_status":`...), int64(extractErrStatus(err)), 10), '}'))
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
		name, end := "tuples", []byte(`{"status":"ok"`)
		if count != 0 {
			end = strconv.AppendInt(append(end, `,"count":`...), int64(count), 10)
		}
		if x.batch {
			name = "results"
		} else {
			end = appendString(append(end, `,"execution":`...), exec.String())
		}
		part(name, result)
		part("end", append(end, '}'))
	default:
		body, _ := x.answer(x.head(plan, hit, ingest, exec, results), plan, results)
		writeJSON(w, http.StatusOK, append(body, '}'))
	}
}

// planPart is x's multipart "plan" part: the plan section with the ingest
// mode and the variables, or a batch's response before evaluation — the
// per-query formulas, variables and compile errors.
func (x extraction) planPart(plan *engine.Plan, hit bool, ingest string) []byte {
	if x.batch {
		queries, _ := appendQueries(x.head(plan, hit, ingest, 0, nil), plan, x.spanners, nil)
		return append(queries, '}')
	}
	dst := appendString(key(appendPlan([]byte{'{'}, plan, hit), "ingest"), ingest)
	return append(appendStrings(key(dst, "vars"), plan.Vars()), '}')
}

// head opens x's JSON response up to the key of its final member —
// "tuples", or a batch's "queries" — whose value answer appends. Ingest is
// how the document was consumed: "inline" (in the JSON request),
// "streamed" (segmented incrementally while uploading) or "buffered" (read
// whole, then evaluated). Execution is the route this document took:
// "split" (segments on the executor), "chunked" (the same at chunk grain:
// the spanner once per run of consecutive segments, where the splitter is
// proven cut-independent) or "whole" (one evaluation on the request
// goroutine — every sequential plan, and a split-parallel plan's documents
// too small to amortise the executor). Strategy is what the verdicts
// justify; execution is what ran.
func (x extraction) head(plan *engine.Plan, hit bool, ingest string, exec engine.Execution, results []engine.BatchResult) []byte {
	if x.batch {
		return key(appendHit([]byte{'{'}, plan, hit), "queries")
	}
	dst := appendString(key(appendPlan(append(make([]byte, 0, 512), '{'), plan, hit), "ingest"), ingest)
	dst = appendStrings(key(appendString(key(dst, "execution"), exec.String()), "vars"), plan.Vars())
	return key(strconv.AppendInt(key(dst, "count"), int64(results[0].Rel.Len()), 10), "tuples")
}

// answer appends x's evaluated result to dst — the query's tuples, or a
// batch's queries — and returns it with its tuple count.
func (x extraction) answer(dst []byte, plan *engine.Plan, results []engine.BatchResult) ([]byte, int) {
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

// handleCheck serves POST /v1/check: it returns the plan's verdicts
// (split-correctness / self-splittability / disjointness / locality)
// without evaluating anything. "local" is the splitter's cut independence
// (core.Splitter.IsLocal): with a yes on the pair itself, it tells a
// client that this daemon runs the pair's large documents "chunked" and
// streams their raw and multipart bodies. Verdicts are served from the
// plan cache, so repeated and concurrent checks of the same pair run the
// PSPACE procedures once.
func (s *server) handleCheck(w http.ResponseWriter, r *http.Request) {
	x := extraction{req: engine.Request{Tenant: s.tenantOf(r)}}
	if !s.readJSON(w, r, &x) {
		return
	}
	plan, hit, err := s.eng.Plan(r.Context(), x.req)
	if err != nil {
		writeError(w, planErrStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, append(appendPlan([]byte{'{'}, plan, hit), '}'))
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
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(resp)
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format: every series of the engine's registry — HTTP, engine stages,
// plan cache, executor, evaluation core.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.eng.Registry().WritePrometheus(w)
}
