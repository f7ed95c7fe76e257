// Package engine implements a long-lived streaming extraction engine on
// top of the split-correctness framework: the serving-side counterpart
// of the paper's split-then-distribute observation (Doleschal et al.,
// PODS 2019, Section 1). A one-shot evaluation pays for compiling the
// formulas and — far worse — for the PSPACE decision procedures that
// justify parallel evaluation, on every call. The engine amortizes both
// across requests:
//
//   - A plan cache memoizes compiled VSet-automata together with their
//     split-correctness / self-splittability / disjointness / locality
//     verdicts, behind an LRU with single-flight deduplication
//     (concurrent requests for the same (spanner, splitter) pair run
//     the decision procedures exactly once). Plans of one tenant share
//     their splitter: it is compiled, and its disjointness and locality
//     decided, once, as an entry of the same cache (splitterArtifact).
//   - Documents may arrive as io.Reader streams: when the plan runs at
//     chunk grain (see below), the split-evaluation executor's workers
//     (internal/parallel) pull the stream — a worker reads a feed, cuts it
//     at a span end of the splitter near its end, with carry-over across
//     chunk boundaries, and evaluates that chunk while the others evaluate
//     earlier ones, so the stream is read no faster than it is evaluated;
//     otherwise the stream is buffered whole, which is sound for
//     arbitrary splitters. ReadTimeout and ctx end a blocked Read only on
//     a stream with read deadlines (see Guard); others must return.
//   - Segment relations are shifted and merged into a deterministic
//     (sorted, deduplicated) result, byte-identical to one-shot
//     evaluation of the whole document.
//   - That identity is the plan's verdict, P = P_S ∘ S, and it licenses
//     either side: per document, the engine splits only where an
//     executor run can pay for itself and evaluates smaller documents
//     whole on the calling goroutine (splitPays; Execution reports the
//     route taken). Where the splitter is also proven cut-independent the
//     split side is evaluated at chunk grain — P once per ChunkSize bytes
//     of consecutive segments, not P_S once per segment (chunked).
//   - A plan answers 1…N queries: a single query is the one-member case
//     of a batch, which shares one pass per document (vsa.Multi). Every
//     entry point runs the one evaluation path, run.
//
// cmd/spand wraps the engine in an HTTP daemon.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/span"
	"repro/internal/vsa"
)

// Config tunes an Engine. The zero value selects sensible defaults.
type Config struct {
	// PlanCache is the maximum number of plan-cache entries (default
	// 128): plans, and the splitter artifacts they share, one per tenant
	// and splitter formula.
	PlanCache int
	// Workers is the number of evaluation workers in the split
	// executor (default GOMAXPROCS). Results never depend on it.
	Workers int
	// RequestWorkers caps the executor parallelism any single request may
	// use (default: Workers, i.e. no per-request cap — the right choice
	// for single-tenant batch work). A serving daemon sets it below
	// Workers so cores stay fungible across requests rather than within
	// one: with admission control allowing T concurrent requests, a
	// budget of ⌈2·Workers/T⌉ keeps one 128K-document request from
	// starving the pool while still letting a lone request use spare
	// cores. Results never depend on it.
	RequestWorkers int
	// Batch is the number of segments grouped into one dispatched task —
	// the executor's scheduling grain — on the per-segment route
	// (ExecSplit; default 16). The chunked route (ExecChunked), streamed
	// or not, deals one chunk per task. Results never depend on it.
	Batch int
	// ChunkSize is the read size for streaming ingestion (default 64 KiB),
	// and with it the grain of the chunked route (ExecChunked): a streamed
	// document is evaluated one feed at a time, an inline one in runs of
	// consecutive segments of at most this many bytes.
	ChunkSize int
	// StateLimit bounds the decision procedures' state space; 0 selects
	// the library default. Plans whose verdict exceeds the limit degrade
	// to sequential evaluation instead of failing.
	StateLimit int
	// MaxDocBuffer caps the bytes the engine will hold in memory for one
	// document: the whole document on the buffered paths (including
	// inline documents given to Extract), the carry-over buffer — the
	// suffix from the last still-open segment's start — on the streaming
	// path. Documents exceeding it fail with ErrDocTooLarge (the daemon
	// maps it to HTTP 413). 0 selects the default (256 MiB); negative
	// means unlimited.
	MaxDocBuffer int64
	// ReadTimeout bounds how long ExtractReader waits for a document
	// stream to make read progress. A stream that stalls longer fails
	// with ErrReadStalled (the daemon maps it to HTTP 408) instead of
	// holding the request's admission token and workers forever. Like a
	// done context, it interrupts a blocked Read only on a reader with
	// SetReadDeadline (a request body, a net.Conn, an *os.File on a pipe);
	// any other reader's Read must return by itself. 0 disables it.
	ReadTimeout time.Duration
	// PlanCacheBytes bounds the summed estimated memory cost of cached
	// plans (0 selects 64 MiB; negative means unlimited). Together with
	// PlanCache it makes the cache cost-aware: many cheap plans and few
	// expensive ones hit the same ceiling.
	PlanCacheBytes int64
	// TenantPlans and TenantPlanBytes carve the cache budgets up per
	// tenant (Request.Tenant): at most TenantPlans entries and
	// TenantPlanBytes estimated bytes per tenant, enforced by evicting
	// the over-quota tenant's own least-recently-used plans. 0 selects
	// the corresponding global bound (i.e. no per-tenant carve-up).
	TenantPlans     int
	TenantPlanBytes int64
}

// ErrDocTooLarge is returned when a document exceeds Config.MaxDocBuffer.
var ErrDocTooLarge = errors.New("engine: document exceeds the configured buffer limit")

// ErrDeadlineExceeded is returned when a request's context deadline
// fires during planning or evaluation. It wraps (and is wrapped by
// errors carrying) context.DeadlineExceeded, so both errors.Is checks
// hold; the daemon maps it to HTTP 504 — the server gave up, unlike a
// client-initiated cancellation (context.Canceled, HTTP 499).
var ErrDeadlineExceeded = errors.New("engine: request deadline exceeded")

// ErrReadStalled is returned by ExtractReader when a stream with read
// deadlines makes no read progress within Config.ReadTimeout (no other
// stream can be timed out). The daemon maps it to HTTP 408.
var ErrReadStalled = errors.New("engine: document stream stalled: no read progress within the configured timeout")

// wrapCtxErr stamps a context deadline error with the engine's typed
// ErrDeadlineExceeded so callers can separate "the server's deadline
// budget ran out" (504) from a client cancellation (499) without
// string-matching. Other errors pass through untouched.
func wrapCtxErr(err error) error {
	if err != nil && errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrDeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	}
	return err
}

func (c Config) withDefaults() Config {
	if c.PlanCache <= 0 {
		c.PlanCache = 128
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RequestWorkers <= 0 || c.RequestWorkers > c.Workers {
		c.RequestWorkers = c.Workers
	}
	if c.PlanCacheBytes == 0 {
		c.PlanCacheBytes = 64 << 20
	}
	if c.Batch <= 0 {
		c.Batch = 16
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 64 << 10
	}
	if c.MaxDocBuffer == 0 {
		c.MaxDocBuffer = 256 << 20
	}
	return c
}

// Stats is a snapshot of engine counters for monitoring. StreamedDocs
// counts the documents that were segmented incrementally while being
// read (WillStream true: a plan that runs chunked); Documents minus
// StreamedDocs were buffered whole (or arrived inline). WholeDocs counts
// the documents evaluated whole (ExecWhole): every document of a
// sequential or batch plan, and a split plan's documents too small to
// amortise the executor. ChunkedDocs counts the documents that took the
// split route at chunk grain (ExecChunked); Segments counts the
// splitter's spans on the per-segment route only (the chunked route cuts
// chunks without segmenting), while Executor.Segments counts the units the
// executor evaluated — chunks, for those documents.
type Stats struct {
	UptimeSec      float64    `json:"uptime_sec"`
	Documents      uint64     `json:"documents"`
	StreamedDocs   uint64     `json:"streamed_docs"`
	WholeDocs      uint64     `json:"whole_docs"`
	ChunkedDocs    uint64     `json:"chunked_docs"`
	Bytes          uint64     `json:"bytes"`
	Segments       uint64     `json:"segments"`
	SegmentsPerSec float64    `json:"segments_per_sec"`
	Workers        int        `json:"workers"`
	RequestWorkers int        `json:"request_workers"`
	Batch          int        `json:"batch"`
	PlanCache      CacheStats `json:"plan_cache"`
	// Stages breaks request-path time down by pipeline stage — plan,
	// segment, eval as top-level stages whose shares sum to 1, plus the
	// nested merge/localize/sim stages (inside eval) and the decide
	// stage (inside plan) as fractions of the same total (see
	// StageStats.Share).
	Stages map[string]StageStats `json:"stages"`
	// Segmenter reports how the chunked route found its cuts.
	Segmenter SegmenterStats `json:"segmenter"`
	// Executor reports the split executor's scheduling counters.
	Executor ExecStats `json:"executor"`
	// Localization reports the match-window localizer's effectiveness
	// over instrumented (large) evaluations.
	Localization LocalizationStats `json:"localization"`
}

// Engine is a long-lived extraction engine; it is safe for concurrent
// use.
type Engine struct {
	cfg   Config
	cache *planCache
	start time.Time
	m     *Metrics
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg: cfg,
		cache: newPlanCache(cacheConfig{
			cap:         cfg.PlanCache,
			maxBytes:    cfg.PlanCacheBytes,
			tenantCap:   cfg.TenantPlans,
			tenantBytes: cfg.TenantPlanBytes,
		}),
		start: time.Now(),
	}
	e.m = newMetrics(e)
	return e
}

// Plan returns the compiled, verdict-annotated one-member plan for the
// request, serving it from the plan cache when possible. hit reports
// whether the expensive work (compilation + decision procedures) was
// skipped — either a completed cached plan or a coalesced in-flight
// compilation.
func (e *Engine) Plan(ctx context.Context, req Request) (plan *Plan, hit bool, err error) {
	return e.plan(ctx, req.Tenant, req.key(), func() (*Plan, error) { return compilePlan(req, e.cfg.StateLimit, e.cache) })
}

// PlanBatch returns the plan of a batch request, one member slot per
// formula, from the same cache as Plan (same LRU, byte budgets and tenant
// quotas). A formula that fails to compile does not fail the batch: its
// error is memoized in its slot (BatchErr).
func (e *Engine) PlanBatch(ctx context.Context, req BatchRequest) (plan *Plan, hit bool, err error) {
	return e.plan(ctx, req.Tenant, req.key(), func() (*Plan, error) { return compileBatchPlan(req) })
}

// plan serves the plan cached under key, compiling it on a miss.
func (e *Engine) plan(ctx context.Context, tenant, key string, compile func() (*Plan, error)) (plan *Plan, hit bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, wrapCtxErr(err)
	}
	t0 := time.Now()
	defer func() {
		e.m.plan.RecordDuration(time.Since(t0))
		err = wrapCtxErr(err)
	}()
	return e.cache.get(ctx, tenant, key, func() (*Plan, error) {
		p, err := compile()
		if err != nil {
			return nil, err
		}
		e.m.decide.RecordDuration(p.DecideTime)
		return p, nil
	})
}

// breakEven is the document size in bytes below which an executor run
// cannot pay for itself: its fixed cost (~30 µs: accumulators,
// sessions, a second goroutine's start and join, the merge) divided by
// what two ideally-scaling workers save per byte over one whole Eval
// (~1.1 ns). DESIGN.md ("Where splitting pays") has the measured rows,
// the arithmetic and the one benchmark command that re-derives it.
const breakEven = 32 << 10

// splitPays decides, per document, which side of P = P_S ∘ S a split plan
// evaluates. It returns false — evaluate P whole on the calling goroutine —
// only when the plan's own verdict makes that equivalent and the document
// cannot amortise an executor run: the request has fewer than two workers
// to spread it over, or it is shorter than breakEven. The verdict is
// consulted rather than the Strategy field so that a plan forced to split
// without a proof keeps the split semantics it asked for.
func (e *Engine) splitPays(plan *Plan, docBytes int) bool {
	if !licensed(plan) {
		return true
	}
	return e.cfg.RequestWorkers >= 2 && docBytes >= breakEven
}

// licensed reports whether the plan's own verdict proves P = P_S ∘ S.
func licensed(plan *Plan) bool {
	return plan.Verdicts.SelfSplittable == core.VerdictYes || plan.Verdicts.SplitCorrect == core.VerdictYes
}

// chunked decides the grain of a split plan's split route, and is the only
// place it is decided. It returns true — evaluate P once per chunk of
// consecutive segments (ExecChunked) instead of P_S once per segment —
// when two proofs are in hand: the plan's own verdict (P = P_S ∘ S on
// every document, hence on every chunk) and the locality verdict, cut
// independence of the splitter (S on a chunk t of d that runs from a span
// start to a span end is S(d) restricted to t). Then P(t) = (P_S ∘ S)(t)
// is exactly the chunk's share of (P_S ∘ S)(d) = P(d); DESIGN.md ("Grain")
// has the proof. The chunks are cut by the splitter's cut finder, memoized
// per splitter, whose existence keeps a plan whose verdicts were set by
// hand over a splitter that is not cut safe off the route.
func chunked(plan *Plan) bool {
	return licensed(plan) && plan.Verdicts.Local == core.VerdictYes && plan.s.CutStates() > 0
}

// Extract evaluates the plan's first member on an in-memory document; see
// run.
func (e *Engine) Extract(ctx context.Context, plan *Plan, doc string) (*span.Relation, error) {
	rels, _, err := e.run(ctx, plan, doc, nil)
	return rels[0], err
}

// ExtractReader is Extract on a document arriving as a stream; a blocked
// Read is given up on only if r has SetReadDeadline (see Guard).
func (e *Engine) ExtractReader(ctx context.Context, plan *Plan, r io.Reader) (*span.Relation, error) {
	rels, _, err := e.run(ctx, plan, "", r)
	return rels[0], err
}

// Answer evaluates the plan on one document — doc, or the stream r when r
// is non-nil — and returns one result per member slot, in slot order, with
// the route the document took; see run. Document-level failures (size
// cap, stall, deadline) are the error and apply to every slot; a slot's
// compile error rides in its result. As with ExtractReader, only a stream
// with SetReadDeadline has a blocked Read given up on.
func (e *Engine) Answer(ctx context.Context, plan *Plan, doc string, r io.Reader) ([]BatchResult, Execution, error) {
	rels, exec, err := e.run(ctx, plan, doc, r)
	return plan.results(rels), exec, err
}

// ExtractBatch is Answer on an in-memory document, without the route.
func (e *Engine) ExtractBatch(ctx context.Context, plan *Plan, doc string) ([]BatchResult, error) {
	results, _, err := e.Answer(ctx, plan, doc, nil)
	return results, err
}

// WillStream reports whether a document stream of this plan is segmented
// incrementally (true) or buffered whole (false). It streams exactly the
// split plans that run at chunk grain (see chunked): their two proofs
// make every feed's chunk, cut at a span end, a document P can be
// evaluated on. Everything else buffers and takes the inline routes — a
// splitter that is not proven local, and a split plan without a verdict.
func (e *Engine) WillStream(plan *Plan) bool {
	return plan.Strategy == StrategySplit && chunked(plan)
}

// run is the one evaluation path under every entry point above. It
// evaluates the plan on one document — doc, or the stream r when r is
// non-nil — and returns one relation per member (sorted, deduplicated)
// with the route the document took.
//
// A split plan's document goes through the splitter and the split
// executor (ExecSplit, or ExecChunked where chunked proves the coarser
// grain) when that can pay for itself (see splitPays) and is otherwise
// evaluated whole on the calling goroutine (ExecWhole), like every
// document of a sequential plan — the plan's verdict makes the routes
// return the same relation. A whole document runs through the plan's
// Multi, of one member or of several; a plan of several members has no
// splitter, so its documents always run whole, one fused pass for all of
// them.
//
// A stream with read deadlines is read behind the stall guard, any
// other directly (see Guard). For a plan that
// streams (see WillStream) it is cut incrementally: the executor's workers
// pull it, each evaluating the chunk it cut (ExecChunked) while another
// reads the next feed (see stream). A stream that ends inside its first
// breakEven bytes never gets that far (see ingest). Every other stream is
// read whole first and takes the inline routes. Memory is bounded by
// Config.MaxDocBuffer on every route: a document over the budget fails
// with ErrDocTooLarge instead of being evaluated.
func (e *Engine) run(ctx context.Context, plan *Plan, doc string, r io.Reader) ([]*span.Relation, Execution, error) {
	// The document's record: every layer below counts into its own part,
	// and it reaches the engine's aggregates in one flush, however run
	// returns.
	rec := new(record)
	defer e.m.flush(rec)
	var cuts *core.CutFinder
	var hint int
	if r != nil {
		var stop func()
		r, hint, stop = e.Guard(ctx, r)
		defer stop()
		var err error
		if doc, cuts, r, err = e.ingest(ctx, plan, r, hint); err != nil {
			return plan.none(), ExecWhole, err
		}
	}
	if cuts == nil && e.cfg.MaxDocBuffer > 0 && int64(len(doc)) > e.cfg.MaxDocBuffer {
		return plan.none(), ExecWhole, fmt.Errorf("%w (%d bytes > %d)", ErrDocTooLarge, len(doc), e.cfg.MaxDocBuffer)
	}
	rec.counted, rec.streamed = true, cuts != nil
	if cuts == nil {
		rec.bytes = uint64(len(doc))
		if plan.p == nil { // no member compiled: nothing to evaluate
			return plan.none(), ExecWhole, nil
		}
		if plan.Strategy != StrategySplit || !e.splitPays(plan, len(doc)) {
			if err := ctx.Err(); err != nil {
				return plan.none(), ExecWhole, wrapCtxErr(err)
			}
			t0 := time.Now()
			s := plan.whole().NewSession(&rec.exec.Eval)
			rels := s.Eval(doc)
			s.Close()
			rec.eval, rec.evaluated = time.Since(t0), true
			return rels, ExecWhole, nil
		}
	}
	ev := plan.ps
	rec.route = ExecSplit
	if chunked(plan) {
		rec.route, ev = ExecChunked, plan.p
	}
	opts := parallel.Options{Workers: e.cfg.RequestWorkers, Batch: e.cfg.Batch, Record: &rec.exec}
	var rels []*span.Relation
	var err error
	t0 := time.Now()
	if cuts != nil {
		rels, err = e.stream(ctx, plan, cuts, r, hint, opts, rec)
	} else {
		var segs []parallel.Segment
		if rec.route == ExecChunked {
			opts.Batch = 1                // one chunk per executor task
			f, _ := plan.s.NewCutFinder() // chunked holds only of a splitter with a cut finder
			segs = parallel.SegmentsOf(doc, f.Chunks(doc, e.cfg.ChunkSize))
			rec.syncFallbacks = uint64(f.Fallbacks())
		} else {
			spans := plan.s.Split(doc)
			segs = parallel.SegmentsOf(doc, spans)
			rec.segments = uint64(len(spans))
		}
		rec.segment, rec.segmented = time.Since(t0), true
		t0 = time.Now()
		rels, err = parallel.Run(ctx, vsa.NewMulti(ev), parallel.Dealt(segs), opts)
	}
	// On the streaming path evaluation overlaps ingestion, so the eval
	// stage's wall time includes time the workers spent blocked on the
	// reader.
	rec.eval, rec.evaluated = time.Since(t0), true
	return rels, rec.route, wrapCtxErr(err)
}

// ingest reads the guarded stream r for run: for a plan that streams, the
// cut finder to cut it with and the reader to feed it from; for any
// other plan, the whole document. A plan that streams first reads up to
// the break-even: a stream that ends before it is evaluated whole and
// comes back as the document, and a longer one loses nothing — what was
// read becomes its first feed.
func (e *Engine) ingest(ctx context.Context, plan *Plan, r io.Reader, hint int) (string, *core.CutFinder, io.Reader, error) {
	if e.WillStream(plan) {
		limit := breakEven
		if 0 < hint && hint < limit {
			limit = hint + 1 // a short stream's end is one byte past what it declares
		}
		if e.cfg.MaxDocBuffer > 0 && e.cfg.MaxDocBuffer < int64(limit) {
			limit = int(e.cfg.MaxDocBuffer)
		}
		var prefix strings.Builder
		_, err := io.CopyN(&prefix, r, int64(limit))
		if err != nil && err != io.EOF {
			return "", nil, nil, err
		}
		if err == io.EOF && !e.splitPays(plan, prefix.Len()) {
			return prefix.String(), nil, nil, nil
		}
		cuts, _ := plan.s.NewCutFinder() // chunked holds only of a splitter with a cut finder
		return "", cuts, io.MultiReader(strings.NewReader(prefix.String()), r), nil
	}
	doc, err := e.readAllBounded(ctx, r, hint)
	return doc, nil, nil, err
}

// stream evaluates a streamed document with P, one chunk per feed. The
// executor's workers pull the stream (parallel.Pulled): the worker that
// pulls reads r until a feed ends a chunk at a cut the cut finder found,
// counts the feed's bytes and cut time into rec, and evaluates that chunk
// while the other workers evaluate earlier ones or wait their turn to
// pull. A saturated pool therefore stops reading — backpressure all the
// way to the network socket. The pull ends at r's end, at r's error, at a
// carry-over over the budget or once ctx is done; a Read that blocks
// returns then too if r has read deadlines, since the stall guard then
// interrupts it (see Guard) — any other r must return by itself.
func (e *Engine) stream(ctx context.Context, plan *Plan, cuts *core.CutFinder, r io.Reader, hint int, opts parallel.Options, rec *record) ([]*span.Relation, error) {
	g := &cutSegmenter{f: cuts}
	cut := func(feed []byte, eof bool) []parallel.Segment {
		t0 := time.Now()
		segs := g.feed(feed, eof)
		rec.segment += time.Since(t0)
		return segs
	}
	var buf []byte
	var eof bool  // r has ended: the final cut is next
	var end error // why the pull ended; io.EOF once r's last chunk is out
	pull := func() ([]parallel.Segment, bool) {
		for end == nil {
			if eof {
				end = io.EOF
				segs := cut(nil, true)
				return segs, len(segs) > 0
			}
			size := e.cfg.ChunkSize
			if 0 < hint && hint < size && int(rec.bytes) <= hint {
				size = hint // short by its own account, until it sends more: under-reporting buys no small reads
			}
			if len(buf) < size {
				buf = make([]byte, size)
			}
			n, err := r.Read(buf)
			switch { // a stall, then a done ctx, then r's own error
			case err == io.EOF:
				eof = true
			case errors.Is(err, ErrReadStalled):
				end = err
			case ctx.Err() != nil:
				end = ctx.Err()
			case err != nil:
				end = err
			}
			if n > 0 {
				rec.bytes += uint64(n)
				segs := cut(buf[:n], false)
				if e.cfg.MaxDocBuffer > 0 && int64(len(g.buf)) > e.cfg.MaxDocBuffer {
					// The carry-over (one still-open segment) outgrew the
					// budget — e.g. a boundary-less document.
					end = fmt.Errorf("%w (carry-over %d bytes > %d)", ErrDocTooLarge, len(g.buf), e.cfg.MaxDocBuffer)
				}
				if len(segs) > 0 {
					return segs, true
				}
			}
		}
		return nil, false
	}
	rels, err := parallel.Run(ctx, vsa.NewMulti(plan.p), parallel.Pulled(pull), opts)
	rec.syncFallbacks, rec.segmented = uint64(cuts.Fallbacks()), true
	if end != nil && end != io.EOF {
		err = end // ahead of Run's: net/http cancels ctx in a Read that stalls
	}
	return rels, err
}

// Stats snapshots the engine counters, the per-stage time breakdown,
// the executor's scheduling statistics and the localizer's
// effectiveness in one pass.
func (e *Engine) Stats() Stats {
	up := time.Since(e.start)
	segs := e.m.segments.Load()
	s := Stats{
		UptimeSec:      up.Seconds(),
		Documents:      e.m.documents.Load(),
		StreamedDocs:   e.m.streamedDocs.Load(),
		WholeDocs:      e.m.wholeDocs.Load(),
		ChunkedDocs:    e.m.chunkedDocs.Load(),
		Bytes:          e.m.bytes.Load(),
		Segments:       segs,
		Workers:        e.cfg.Workers,
		RequestWorkers: e.cfg.RequestWorkers,
		Batch:          e.cfg.Batch,
		PlanCache:      e.cache.stats(),
		Stages:         e.m.stageStats(),
		Segmenter:      SegmenterStats{SyncFallbacks: e.m.syncFallbacks.Load()},
		Executor: ExecStats{Runs: e.m.runs.Load(), Chunks: e.m.chunks.Load(), Segments: e.m.execSegments.Load(),
			EvalMB: float64(e.m.evalBytes.Load()) / 1e6},
		Localization: LocalizationStats{InstrumentedEvals: e.m.counts[vsa.Evals].Load(), EmptyDocs: e.m.counts[vsa.EmptyDocs].Load(),
			Fallbacks: e.m.counts[vsa.Fallbacks].Load()},
	}
	if up > 0 {
		s.SegmentsPerSec = float64(segs) / up.Seconds()
	}
	if w := e.m.workerNS.Load(); w > 0 {
		s.Executor.BusyShare = float64(e.m.busyNS.Load()) / float64(w)
	}
	if db := e.m.counts[vsa.DocBytes].Load(); db > 0 {
		s.Localization.WindowByteShare = float64(e.m.counts[vsa.WindowBytes].Load()) / float64(db)
	}
	return s
}

// presize bounds the capacity a stream's declared length reserves before
// its first byte arrives: what a client can make the daemon set aside
// without uploading is presize per admitted request (spand -admit). 16 MiB
// is 8× the largest document of BENCHMARK.json and a sixteenth of the
// default MaxDocBuffer; a longer document starts there and doubles.
const presize = 16 << 20

// Guard reads the length r declares through the optional Len method
// (*strings.Reader, *bytes.Reader, *bytes.Buffer, cmd/spand's body with a
// Content-Length; ≤ 0 is none) — it sizes buffers and refuses a
// declared-too-large document unread, no answer depends on it — and, when
// ReadTimeout is set or ctx can end, puts r behind the stall guard
// (deadlineReader) if r takes read deadlines (the optional SetReadDeadline:
// a request body, a net.Conn, an *os.File on a pipe). Any other reader is
// read directly, and its Read must return by itself. The caller calls stop
// once it is done reading. Every stream the engine reads goes through it;
// cmd/spand reads its inline JSON bodies, and its multipart bodies up to
// the doc part, through it too, so a stall there also answers
// ErrReadStalled or ctx's error.
func (e *Engine) Guard(ctx context.Context, r io.Reader) (guarded io.Reader, hint int, stop func()) {
	if l, ok := r.(interface{ Len() int }); ok {
		hint = l.Len()
	}
	d, ok := r.(interface{ SetReadDeadline(time.Time) error })
	if !ok || e.cfg.ReadTimeout <= 0 && ctx.Done() == nil || d.SetReadDeadline(time.Time{}) != nil {
		return r, hint, func() {}
	}
	g := &deadlineReader{ctx: ctx, r: r, set: d.SetReadDeadline, timeout: e.cfg.ReadTimeout}
	g.unregister = context.AfterFunc(ctx, func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		if !g.done {
			_ = g.set(time.Unix(1, 0)) // past: a blocked Read returns now
		}
	})
	return g, hint, g.stop
}

// deadlineReader is the stall guard. Before each Read it sets the read
// deadline to now + timeout, and a Read that times out past it fails with
// ErrReadStalled (the daemon's 408) — decided by the deadline, not by ctx,
// since net/http cancels the request inside any body Read that fails. Once
// ctx is done, a past deadline ends a blocked Read with ctx's error. A
// Read that fails or hits EOF — the last the engine makes — and stop clear
// the deadline: from a body's EOF on, net/http reads the connection in the
// background, where a deadline still set would cancel a request that is
// still evaluating. Once stopped it reads r directly, so a caller may stop
// it before another guard takes over the rest of r (cmd/spand's multipart
// body, whose doc part the engine guards itself).
type deadlineReader struct {
	ctx        context.Context
	r          io.Reader
	set        func(time.Time) error // r's SetReadDeadline; past Guard's probe, its errors are r's to report
	timeout    time.Duration         // ≤ 0: none, only ctx ends a Read
	unregister func() bool           // ctx's AfterFunc
	mu         sync.Mutex            // orders stop against that AfterFunc
	done       bool                  // stop ran: the AfterFunc sets no deadline
}

func (g *deadlineReader) Read(p []byte) (n int, err error) {
	if g.done { // stopped: r is read as it is, and no deadline is set again
		return g.r.Read(p)
	}
	var due time.Time // this Read's progress deadline
	if g.timeout > 0 {
		due = time.Now().Add(g.timeout)
		_ = g.set(due)
	}
	// After the set, which may have overwritten a done ctx's past deadline.
	if err = g.ctx.Err(); err == nil {
		if n, err = g.r.Read(p); err == nil {
			return n, nil
		}
	}
	g.stop()
	switch {
	case err == io.EOF:
	case g.timeout > 0 && errors.Is(err, os.ErrDeadlineExceeded) && !time.Now().Before(due):
		err = ErrReadStalled
	case g.ctx.Err() != nil:
		err = wrapCtxErr(g.ctx.Err())
	}
	return n, err
}

// stop clears the deadline and keeps ctx's AfterFunc from setting one; it
// may be called more than once.
func (g *deadlineReader) stop() {
	g.unregister()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.done = true
	_ = g.set(time.Time{})
}

// readAllBounded reads the whole stream into one buffer and returns it as
// the document, failing with ErrDocTooLarge once it exceeds
// Config.MaxDocBuffer — before the first read when hint already does. The
// copy is io.Copy's: a *strings.Reader's whole document at once (WriteTo),
// any other stream's in 32 KiB reads — after, for one that declares less,
// an io.CopyN of hint+1 bytes, where its end is: a small body gets a small
// buffer, and an under-reporting one no small reads.
func (e *Engine) readAllBounded(ctx context.Context, r io.Reader, hint int) (string, error) {
	d := docBuffer{ctx: ctx, max: e.cfg.MaxDocBuffer, hint: hint, b: new(strings.Builder)}
	if err := d.reserve(hint); err != nil {
		return "", err
	}
	if _, ok := r.(io.WriterTo); !ok && 0 < hint && hint < 32<<10 {
		if _, err := io.CopyN(&d, r, int64(hint)+1); err == io.EOF {
			return d.b.String(), nil
		} else if err != nil {
			return "", err
		}
	}
	if _, err := io.Copy(&d, r); err != nil {
		return "", err
	}
	return d.b.String(), nil
}

// docBuffer is readAllBounded's destination: a strings.Builder — so the
// bytes become the document without another copy — whose every write
// first checks the context and the budget, so a request whose deadline
// fires mid-upload fails promptly (typed via wrapCtxErr) instead of
// buffering a slow body forever; a read that does not return at all is
// the stall guard's job, on a stream with read deadlines (see Guard).
type docBuffer struct {
	ctx  context.Context
	max  int64
	hint int
	b    *strings.Builder
}

// reserve admits n more bytes and makes room for them: the first time
// (readAllBounded's, for the stream's hint) for presize at most, after
// that for twice what there was — append's 1.25× would move a long
// document seven times — up to a hint that still holds, and never past
// the budget: a document within it may not cost more than it. The room is
// a new Builder: Builder.Grow(n) adds n to twice the capacity it has.
func (d *docBuffer) reserve(n int) error {
	size := d.b.Len() + n
	if err := d.ctx.Err(); err != nil {
		return wrapCtxErr(err)
	} else if d.max > 0 && int64(size) > d.max {
		return fmt.Errorf("%w (> %d bytes)", ErrDocTooLarge, d.max)
	} else if size <= d.b.Cap() {
		return nil
	}
	grown := max(2*d.b.Cap(), size)
	if size <= d.hint {
		grown = min(grown, d.hint)
	}
	if d.b.Cap() == 0 {
		grown = min(grown, presize)
	}
	if d.max > 0 {
		grown = min(grown, int(d.max)) // ≥ size, which is within the budget
	}
	b := new(strings.Builder)
	b.Grow(grown)
	b.WriteString(d.b.String())
	d.b = b
	return nil
}

func (d *docBuffer) Write(p []byte) (int, error) {
	if err := d.reserve(len(p)); err != nil {
		return 0, err
	}
	return d.b.Write(p)
}

// WriteString is what (*strings.Reader).WriteTo hands an unguarded
// document to, whole; without it io.WriteString copies it to a []byte first.
func (d *docBuffer) WriteString(s string) (int, error) {
	if err := d.reserve(len(s)); err != nil {
		return 0, err
	}
	return d.b.WriteString(s)
}
