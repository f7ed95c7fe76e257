package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/parallel"
	"repro/internal/regexformula"
	"repro/internal/span"
	"repro/internal/vsa"
)

// BatchRequest names a registered multi-query set: N spanner formulas to
// be answered by one shared pass over each document (vsa.Multi). Like a
// single-plan Request, the batch is a plan-cache key: the fused
// automaton, the per-member compilations and their errors are memoized
// once and every later ExtractBatch with the same formula list reuses
// them, subject to the same LRU/byte/tenant budgets as single plans.
type BatchRequest struct {
	// Spanners are the member regex formulas, in result order. Duplicate
	// formulas are legal: they compile once and share one fused member,
	// and ExtractBatch reports the same relation in both slots.
	Spanners []string
	// Tenant scopes the cached batch plan exactly like Request.Tenant.
	Tenant string
}

// key is the batch plan-cache key. It deliberately starts with the
// literal "batch:" — a single-plan Request.key always starts with a
// decimal digit (the tenant length prefix) — so a fused plan can never
// alias a singleton plan's cache entry no matter what bytes the formulas
// contain. The remaining fields are length-prefixed like Request.key.
func (r BatchRequest) key() string {
	var b strings.Builder
	b.WriteString("batch:")
	fmt.Fprintf(&b, "%d:%s", len(r.Tenant), r.Tenant)
	for _, s := range r.Spanners {
		fmt.Fprintf(&b, "%d:%s", len(s), s)
	}
	return b.String()
}

// batchPlan is the fused side of a Plan: the member compilations, their
// per-slot errors, and the shared multi-query evaluator.
type batchPlan struct {
	req BatchRequest
	// members holds each distinct successfully-compiled formula's
	// automaton, in first-appearance order — the member order of multi.
	members []*vsa.Automaton
	// multi is the fused evaluator over members (nil when every formula
	// failed to compile).
	multi *vsa.Multi
	// slot maps each request slot to its index in members, or -1 when
	// that slot's formula failed to compile; errs then carries the error.
	// Duplicate formulas map to the same member index.
	slot []int
	errs []error
}

// IsBatch reports whether the plan is a fused multi-query plan (built by
// PlanBatch). Batch plans are evaluated with ExtractBatch; the
// single-document entry points (Extract, ExtractReader) do not accept
// them.
func (p *Plan) IsBatch() bool { return p.batch != nil }

// BatchLen returns the number of member-query slots of a batch plan
// (len(BatchRequest.Spanners)), or 0 for single plans.
func (p *Plan) BatchLen() int {
	if p.batch == nil {
		return 0
	}
	return len(p.batch.slot)
}

// BatchErr returns slot i's memoized compile error, or nil when the slot
// compiled (or the plan is not a batch plan). Per-member failures are
// part of the cached plan, not plan-level errors: one bad formula must
// not fail — or force recompilation of — its siblings.
func (p *Plan) BatchErr(i int) error {
	if p.batch == nil || i < 0 || i >= len(p.batch.errs) {
		return nil
	}
	return p.batch.errs[i]
}

// BatchVars returns slot i's output variables, or nil when the slot's
// formula failed to compile.
func (p *Plan) BatchVars(i int) []string {
	if p.batch == nil || i < 0 || i >= len(p.batch.slot) || p.batch.slot[i] < 0 {
		return nil
	}
	return append([]string(nil), p.batch.members[p.batch.slot[i]].Vars...)
}

// compileBatchPlan builds a fused plan: each formula compiles under its
// own panic guard, per-formula failures are recorded per slot (the batch
// itself still succeeds and is cached — the per-query-error contract),
// duplicate formulas are deduplicated into one member, and the distinct
// members fuse into one vsa.Multi. Like compilePlan it takes no context:
// it runs under the cache's single-flight on behalf of every coalesced
// waiter.
func compileBatchPlan(req BatchRequest) (*Plan, error) {
	if len(req.Spanners) == 0 {
		return nil, errors.New("engine: empty batch: no spanner formulas")
	}
	t0 := time.Now()
	b := &batchPlan{
		req:  req,
		slot: make([]int, len(req.Spanners)),
		errs: make([]error, len(req.Spanners)),
	}
	plan := &Plan{Req: Request{Tenant: req.Tenant}, batch: b}
	seen := make(map[string]int, len(req.Spanners)) // formula -> first slot
	for i, src := range req.Spanners {
		if j, ok := seen[src]; ok {
			b.slot[i], b.errs[i] = b.slot[j], b.errs[j]
			continue
		}
		seen[src] = i
		a, err := compileBatchMember(src)
		if err != nil {
			b.slot[i], b.errs[i] = -1, err
			continue
		}
		b.slot[i] = len(b.members)
		b.members = append(b.members, a)
	}
	if len(b.members) > 0 {
		b.multi = vsa.NewMulti(b.members...)
	}
	plan.warm()
	plan.CompileTime = time.Since(t0)
	return plan, nil
}

// compileBatchMember compiles one member formula under a panic guard:
// compilation can panic on hostile input (e.g. more variables than
// vsa.MaxVars), and inside a batch that must fail the one slot, not the
// whole batch (the cache's runBuild guard would do the latter).
func compileBatchMember(src string) (a *vsa.Automaton, err error) {
	defer func() {
		if r := recover(); r != nil {
			a, err = nil, fmt.Errorf("engine: spanner: compilation failed: %v", r)
		}
	}()
	if src == "" {
		return nil, errors.New("engine: empty spanner formula")
	}
	a, err = regexformula.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("engine: spanner: %w", err)
	}
	return a, nil
}

// PlanBatch returns the compiled fused plan for the batch request,
// serving it from the same plan cache as single plans (same LRU, byte
// budgets and tenant quotas; the "batch:" key prefix keeps fused and
// singleton entries disjoint). hit reports whether compilation was
// skipped. Per-member compile errors do not fail the batch: they are
// memoized inside the returned plan (BatchErr) so one bad formula yields
// one bad slot, cached like everything else.
func (e *Engine) PlanBatch(ctx context.Context, req BatchRequest) (plan *Plan, hit bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, wrapCtxErr(err)
	}
	t0 := time.Now()
	defer func() {
		e.m.observeStage(StagePlan, time.Since(t0))
		err = wrapCtxErr(err)
	}()
	return e.cache.get(ctx, req.Tenant, req.key(), func() (*Plan, error) {
		p, err := compileBatchPlan(req)
		if err != nil {
			return nil, err
		}
		// Attach the engine's counters exactly as Plan does for single
		// plans: members report into the shared evaluation metrics, the
		// fused evaluator into the multi-query series.
		for _, a := range p.batch.members {
			a.SetEvalMetrics(&e.m.eval)
		}
		if p.batch.multi != nil {
			p.batch.multi.SetMetrics(&e.m.multi)
		}
		return p, nil
	})
}

// BatchResult is one member query's outcome in an ExtractBatch: its
// relation (sorted, deduplicated, byte-identical to Extract of that
// formula alone on the same document) or its memoized compile error.
// Slots holding duplicate formulas share one *span.Relation.
type BatchResult struct {
	Rel *span.Relation
	Err error
}

// ExtractBatch evaluates a fused batch plan on an in-memory document:
// one shared pass (vsa.Multi on the work-stealing executor) answers
// every compiled member, demultiplexed into one result per request slot.
// Document-level failures (size cap, deadline) are returned as the
// second value and apply to the whole batch; per-member compile errors
// ride in their slots. Like Extract, a deadline firing mid-evaluation
// returns the partial per-slot relations together with the typed error.
func (e *Engine) ExtractBatch(ctx context.Context, plan *Plan, doc string) ([]BatchResult, error) {
	b := plan.batch
	if b == nil {
		return nil, errors.New("engine: ExtractBatch requires a batch plan (see PlanBatch)")
	}
	if e.cfg.MaxDocBuffer > 0 && int64(len(doc)) > e.cfg.MaxDocBuffer {
		return nil, fmt.Errorf("%w (%d bytes > %d)", ErrDocTooLarge, len(doc), e.cfg.MaxDocBuffer)
	}
	out := make([]BatchResult, len(b.slot))
	for i, s := range b.slot {
		if s < 0 {
			out[i].Err = b.errs[i]
		}
	}
	e.m.documents.Inc()
	e.m.bytes.Add(uint64(len(doc)))
	if b.multi == nil { // every formula failed: nothing to evaluate
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return out, wrapCtxErr(err)
	}
	t0 := time.Now()
	whole := []parallel.Segment{{Span: span.Span{Start: 1, End: len(doc) + 1}, Text: doc}}
	rels, err := parallel.MultiEvalCtx(ctx, b.multi, whole, e.evalOpts())
	e.m.observeStage(StageEval, time.Since(t0))
	for i, s := range b.slot {
		if s >= 0 {
			out[i].Rel = rels[s]
		}
	}
	return out, wrapCtxErr(err)
}

// ExtractBatchReader is ExtractBatch on a document stream. A fused batch
// evaluates its document as one segment, so the stream is buffered whole
// — behind the same guards as RunReader's buffered branch: a stream that
// stalls past Config.ReadTimeout fails with ErrReadStalled, a done
// context ends the read, and at most Config.MaxDocBuffer is held.
func (e *Engine) ExtractBatchReader(ctx context.Context, plan *Plan, r io.Reader) ([]BatchResult, error) {
	r, hint, stop := e.guard(ctx, r)
	defer stop()
	doc, err := e.readAllBounded(ctx, r, hint)
	if err != nil {
		return nil, err
	}
	return e.ExtractBatch(ctx, plan, doc)
}
