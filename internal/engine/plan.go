package engine

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/regexformula"
	"repro/internal/span"
	"repro/internal/vsa"
)

// Strategy is the evaluation strategy an extraction plan settled on.
type Strategy int8

const (
	// StrategySequential evaluates the spanner directly on the whole
	// document — the fallback whenever split evaluation is not known to
	// be equivalent.
	StrategySequential Strategy = iota
	// StrategySplit is the paper's split-then-distribute plan: apply the
	// splitter, evaluate the split-spanner on every segment on the
	// split executor, merge the shifted results. The plan's verdict
	// established P = P_S ∘ S, and an equivalence licenses either side, so
	// the strategy says what the plan may do, not what every document gets:
	// a document too small to amortise an executor run is evaluated whole
	// (see Engine.splitPays), and Execution reports which route it took.
	StrategySplit
)

func (s Strategy) String() string {
	if s == StrategySplit {
		return "split-parallel"
	}
	return "sequential"
}

// MarshalText renders the strategy for JSON consumers.
func (s Strategy) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Execution is the route one document took through a plan — what ran, as
// opposed to Strategy, which is what the verdicts justify.
type Execution int8

const (
	// ExecWhole is one P.Eval over the whole document on the calling
	// goroutine: every document of a sequential plan, and the documents of
	// a split-correct plan that cannot amortise an executor run.
	ExecWhole Execution = iota
	// ExecSplit is (P_S ∘ S)(d): the splitter's segments evaluated on the
	// split executor and merged.
	ExecSplit
	// ExecChunked is the split route at chunk grain: P evaluated once per
	// ChunkSize-sized run of consecutive segments on the executor, which
	// the plan's verdict and cut independence of its splitter make equal
	// to (P_S ∘ S)(d) (see chunked).
	ExecChunked
)

func (x Execution) String() string {
	switch x {
	case ExecSplit:
		return "split"
	case ExecChunked:
		return "chunked"
	}
	return "whole"
}

// Request names an extraction plan: a spanner formula, optionally a
// splitter formula, and optionally an explicit split-spanner formula.
// The three formulas are the plan-cache key.
type Request struct {
	// Spanner is the regex formula of the spanner P (required).
	Spanner string
	// Splitter is the unary regex formula of the splitter S; when empty
	// the plan is sequential-only.
	Splitter string
	// SplitSpanner is the regex formula of an explicit split-spanner
	// P_S. When empty and a splitter is given, the plan checks
	// self-splittability (P_S = P); when given, it checks
	// split-correctness of (P, P_S, S).
	SplitSpanner string
	// Tenant scopes the plan in the cache's per-tenant quotas (the
	// daemon fills it from the configured tenant header). It is part of
	// the cache key: tenants never share entries, so one tenant's churn
	// can only evict that tenant's plans and quota accounting stays
	// unambiguous. Empty is the anonymous default tenant.
	Tenant string
}

// key is the plan-cache key. Fields are length-prefixed so no byte
// sequence inside a formula (NUL included — it is a legal literal) can
// make two distinct requests collide.
func (r Request) key() string {
	return fmt.Sprintf("%d:%s%d:%s%d:%s%d:%s",
		len(r.Tenant), r.Tenant,
		len(r.Spanner), r.Spanner, len(r.Splitter), r.Splitter, len(r.SplitSpanner), r.SplitSpanner)
}

// BatchRequest names a registered multi-query set: N spanner formulas to
// be answered by one shared pass over each document (vsa.Multi). Like a
// Request, the batch is a plan-cache key: the fused automaton, the
// per-member compilations and their errors are memoized once and every
// later ExtractBatch with the same formula list reuses them, subject to
// the same LRU/byte/tenant budgets.
type BatchRequest struct {
	// Spanners are the member regex formulas, in result order. Duplicate
	// formulas are legal: they compile once and share one fused member,
	// and ExtractBatch reports the same relation in both slots.
	Spanners []string
	// Tenant scopes the cached batch plan exactly like Request.Tenant.
	Tenant string
}

// key is the batch plan-cache key. It deliberately starts with the
// literal "batch:" — a Request.key always starts with a decimal digit
// (the tenant length prefix) — so a batch plan can never alias a
// single-query plan's cache entry no matter what bytes the formulas
// contain: the two differ in how a slot's compile error is reported. The
// remaining fields are length-prefixed like Request.key.
func (r BatchRequest) key() string {
	var b strings.Builder
	b.WriteString("batch:")
	fmt.Fprintf(&b, "%d:%s", len(r.Tenant), r.Tenant)
	for _, s := range r.Spanners {
		fmt.Fprintf(&b, "%d:%s", len(s), s)
	}
	return b.String()
}

// BatchResult is one member slot's outcome: its relation (sorted,
// deduplicated, byte-identical to Extract of that formula alone on the
// same document) or its memoized compile error. Slots holding duplicate
// formulas share one *span.Relation.
type BatchResult struct {
	Rel *span.Relation
	Err error
}

// Plan is a compiled, verdict-annotated extraction plan: the unit the
// engine's cache memoizes so the PSPACE decision procedures and the
// automaton compilation run once per (spanner, splitter) pair, not once
// per request. A plan answers 1…N member slots — one for a Request, one
// per formula for a BatchRequest — and has at most one splitter.
type Plan struct {
	// Req is the source request (also the cache key); for a batch plan it
	// carries the tenant only.
	Req Request
	// Verdicts holds the memoized decision-procedure outcomes.
	Verdicts core.PlanVerdicts
	// Strategy is the evaluation strategy the verdicts justify.
	Strategy Strategy
	// CompileTime is how long compilation, the decision procedures and
	// warming the evaluation caches took; cache hits amortize exactly
	// this cost. DecideTime is the part of it spent inside the decision
	// procedures (disjointness, locality, split-correctness or
	// self-splittability); zero for plans without a splitter. A plan that
	// shares its splitter with an earlier plan took disjointness and
	// locality from it, so both times exclude them.
	CompileTime time.Duration
	DecideTime  time.Duration

	p  *vsa.Automaton // the spanner P: the first member (nil when no slot compiled)
	ps *vsa.Automaton // the split-spanner P_S (nil unless StrategySplit)
	s  *core.Splitter // the splitter S (nil when Req.Splitter is empty)
	// split is the artifact s comes from, shared with every plan of the
	// same tenant and splitter; while this plan is cached, it pins the
	// artifact's cache entry, which S is charged to.
	split *splitterArtifact

	// batch holds a batch plan's formulas, one per slot (nil for the plan
	// of a Request, whose one slot is Req.Spanner). members holds each
	// distinct formula that compiled, in first-appearance order; slot maps
	// a slot to its index in members, or to -1 with errs carrying the
	// compile error. Duplicate formulas share one member.
	batch   []string
	members []*vsa.Automaton
	slot    []int
	errs    []error
	// multi evaluates members on a whole document, one pass per scan
	// group: a plan of one member holds the Multi of one.
	multi *vsa.Multi
}

// Spanner exposes the compiled spanner automaton.
func (p *Plan) Spanner() *vsa.Automaton { return p.p }

// SplitterOf exposes the compiled splitter, or nil for sequential-only
// plans.
func (p *Plan) SplitterOf() *core.Splitter { return p.s }

// Vars returns the output variables of the plan's first member.
func (p *Plan) Vars() []string {
	if p.p == nil {
		return nil
	}
	return append([]string(nil), p.p.Vars...)
}

// BatchErr returns slot i's memoized compile error, or nil when the slot
// compiled. Per-member failures are part of the cached plan, not
// plan-level errors: one bad formula must not fail — or force
// recompilation of — its siblings.
func (p *Plan) BatchErr(i int) error {
	if i < 0 || i >= len(p.errs) {
		return nil
	}
	return p.errs[i]
}

// BatchVars returns slot i's output variables, or nil when the slot's
// formula failed to compile.
func (p *Plan) BatchVars(i int) []string {
	if i < 0 || i >= len(p.slot) || p.slot[i] < 0 {
		return nil
	}
	return append([]string(nil), p.members[p.slot[i]].Vars...)
}

// results maps the relations run returned, one per member, to the plan's
// slots.
func (p *Plan) results(rels []*span.Relation) []BatchResult {
	out := make([]BatchResult, len(p.slot))
	for i, m := range p.slot {
		if m < 0 {
			out[i].Err = p.errs[i]
		} else {
			out[i].Rel = rels[m]
		}
	}
	return out
}

// whole is the Multi a document evaluated whole runs through: the one
// compile built over the members, or, for a plan assembled around P
// without them, P's Multi of one.
func (p *Plan) whole() *vsa.Multi {
	if p.multi == nil {
		return vsa.NewMulti(p.p)
	}
	return p.multi
}

// none is what run answers for a document that failed before evaluation:
// no relation, for each member.
func (p *Plan) none() []*span.Relation { return make([]*span.Relation, max(len(p.members), 1)) }

// cost estimates the plan's resident memory in bytes for the cache's
// byte budgets: a per-plan baseline (entry bookkeeping, formula
// strings) plus a per-state/per-edge charge for every distinct
// automaton the plan holds. The compiled evaluation caches (byte-class
// tables, lazy DFAs) grow with the same quantities, so the estimate is
// monotone in the real footprint even though it does not measure the
// lazily-built parts. Every member is charged (the fused DFA's
// lazily-built state space grows with the members' combined size), so N
// cheap formulas registered as one batch cost the cache roughly what N
// single plans would. The splitter is not the plan's: it is charged to
// its shared artifact's own entry (splitterArtifact.cost), so K plans of
// a tenant over one splitter count S once, not K times.
func (p *Plan) cost() int64 {
	const (
		base       = 512
		perFormula = 1 // per byte of formula text
	)
	c := int64(base)
	c += int64(len(p.Req.Spanner)+len(p.Req.Splitter)+len(p.Req.SplitSpanner)) * perFormula
	for _, s := range p.batch {
		c += int64(len(s)) * perFormula
	}
	for _, a := range p.members {
		c += automatonCost(a)
	}
	if p.ps != nil && p.ps != p.p {
		c += automatonCost(p.ps)
	}
	return c
}

// automatonCost is the cache's charge for one automaton: per state and
// per edge.
func automatonCost(a *vsa.Automaton) int64 {
	const perState, perEdge = 96, 48
	return int64(a.NumStates())*perState + int64(a.NumEdges())*perEdge
}

// compilePlan builds the one-member plan of a request, its splitter taken
// from cache (see decide). Slot 0's compile error is the plan's: a
// Request names one query, so there is no sibling to answer.
func compilePlan(req Request, limit int, cache *planCache) (*Plan, error) {
	plan, err := compile(req, nil, limit, cache)
	if err == nil && plan.errs[0] != nil {
		return nil, plan.errs[0]
	}
	return plan, err
}

// compileBatchPlan builds the plan of a batch: one slot per formula, a
// failed formula's error memoized in its slot (the batch itself still
// succeeds and is cached), no splitter.
func compileBatchPlan(req BatchRequest) (*Plan, error) {
	if len(req.Spanners) == 0 {
		return nil, errors.New("engine: empty batch: no spanner formulas")
	}
	return compile(Request{Tenant: req.Tenant}, req.Spanners, 0, nil)
}

// compile builds a Plan: it compiles the member formulas — batch, or else
// req.Spanner — each under its own panic guard, duplicates once, and, when
// a member compiled, req's split-spanner, with its splitter taken from
// cache; runs the relevant decision procedures under the state limit,
// picks the strategy and warms the evaluation caches. A limit overflow
// (automata.ErrTooLarge) is not an error: the verdict stays unknown and
// the plan degrades to sequential evaluation, which is always correct.
//
// compile deliberately takes no context: it runs under the cache's
// single-flight, and a build started on behalf of one request serves
// every coalesced waiter — cancelling it because the first requester
// went away would fail the others. The decision procedures themselves
// are bounded by the state limit rather than by cancellation.
func compile(req Request, batch []string, limit int, cache *planCache) (*Plan, error) {
	t0 := time.Now()
	spanners := batch
	if batch == nil {
		spanners = []string{req.Spanner}
	}
	plan := &Plan{Req: req, batch: batch, slot: make([]int, len(spanners)), errs: make([]error, len(spanners))}
	seen := make(map[string]int, len(spanners)) // formula -> first slot
	for i, src := range spanners {
		if j, ok := seen[src]; ok {
			plan.slot[i], plan.errs[i] = plan.slot[j], plan.errs[j]
			continue
		}
		seen[src] = i
		a, err := compileMember(src)
		if err != nil {
			plan.slot[i], plan.errs[i] = -1, err
			continue
		}
		plan.slot[i] = len(plan.members)
		plan.members = append(plan.members, a)
	}
	if len(plan.members) > 0 {
		plan.p = plan.members[0]
		plan.multi = vsa.NewMulti(plan.members...)
		if err := plan.decide(limit, cache); err != nil {
			return nil, err
		}
	}
	plan.warm()
	plan.CompileTime = time.Since(t0)
	return plan, nil
}

// compileMember compiles one member formula under a panic guard: hostile
// input no typed compile error catches must, inside a batch, fail the one
// slot, not the whole batch (the cache's runBuild guard would do the
// latter).
func compileMember(src string) (a *vsa.Automaton, err error) {
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

// decide takes the plan's splitter artifact from cache, compiles its
// split-spanner, if it has one, and fills in the verdicts, the strategy
// and DecideTime.
func (p *Plan) decide(limit int, cache *planCache) error {
	req := p.Req
	if req.Splitter == "" {
		if req.SplitSpanner != "" {
			return errors.New("engine: split_spanner given without a splitter")
		}
		return nil
	}
	art, shared, err := cache.artifact(req.Tenant, req.Splitter, limit)
	if err != nil {
		return err
	}
	ps := p.p // self-splittability unless a split-spanner is given
	if req.SplitSpanner != "" {
		ps, err = regexformula.Compile(req.SplitSpanner)
		if err != nil {
			return fmt.Errorf("engine: split_spanner: %w", err)
		}
	}
	if err := p.decideSplit(art, ps, limit); err != nil {
		return err
	}
	if !shared {
		p.DecideTime += art.decideTime
	}
	return nil
}

// decideSplit takes the S-only verdicts from the splitter artifact and
// decides the (P, S) question: self-splittability when ps is the plan's
// P, split-correctness of (P, ps, S) otherwise.
func (p *Plan) decideSplit(art *splitterArtifact, ps *vsa.Automaton, limit int) error {
	p.split, p.s = art, art.s
	p.Verdicts.Disjoint, p.Verdicts.Local, p.Verdicts.Note = art.disjoint, art.local, art.note

	t0 := time.Now()
	defer func() { p.DecideTime = time.Since(t0) }()
	// One procedure for both questions: self-splittability is
	// split-correctness with P as its own split-spanner.
	what, verdict := "self-splittability", &p.Verdicts.SelfSplittable
	if ps != p.p {
		what, verdict = "split-correctness", &p.Verdicts.SplitCorrect
	}
	ok, err := core.SplitCorrect(p.p, ps, p.s, limit)
	switch {
	case errors.Is(err, automata.ErrTooLarge):
		p.Verdicts.Note = appendNote(p.Verdicts.Note, what+" undecided: "+err.Error())
	case err != nil:
		return fmt.Errorf("engine: %s: %w", what, err)
	default:
		*verdict = core.VerdictOf(ok)
		if ok {
			p.Strategy = StrategySplit
			p.ps = ps
		}
	}
	return nil
}

// appendNote joins verdict notes: several procedures can independently
// exceed the state budget on one plan.
func appendNote(existing, note string) string {
	if existing == "" {
		return note
	}
	return existing + "; " + note
}

// warm forces the evaluation caches (byte-class tables, lazy-DFA start
// states, suffix-universality) of every automaton the plan will evaluate
// with, so the caches are built once under the plan cache's single-flight
// and every extraction request served from the cache — including
// concurrent ones — reuses the same compiled evaluators. Warming also
// freezes the automata, guaranteeing no code path can mutate a cached
// plan's machines. The splitter came prepared with its artifact.
func (p *Plan) warm() {
	if p.multi != nil {
		// Prepares the scan groups and every member's compiled caches.
		p.multi.Prepare()
	}
	if p.ps != nil {
		p.ps.Prepare()
	}
}
