package engine

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/regexformula"
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
	// work-stealing executor, merge the shifted results. The plan's verdict
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
	// work-stealing executor and merged.
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

// Plan is a compiled, verdict-annotated extraction plan: the unit the
// engine's cache memoizes so the PSPACE decision procedures and the
// automaton compilation run once per (spanner, splitter) pair, not once
// per request.
type Plan struct {
	// Req is the source request (also the cache key).
	Req Request
	// Verdicts holds the memoized decision-procedure outcomes.
	Verdicts core.PlanVerdicts
	// Strategy is the evaluation strategy the verdicts justify.
	Strategy Strategy
	// CompileTime is how long compilation, the decision procedures and
	// warming the evaluation caches took; cache hits amortize exactly
	// this cost. DecideTime is the part of it spent inside the decision
	// procedures (disjointness, locality, split-correctness or
	// self-splittability); zero for plans without a splitter.
	CompileTime time.Duration
	DecideTime  time.Duration

	p  *vsa.Automaton // the spanner P
	ps *vsa.Automaton // the split-spanner P_S (nil unless StrategySplit)
	s  *core.Splitter // the splitter S (nil when Req.Splitter is empty)

	// batch, when non-nil, marks a fused multi-query plan (PlanBatch):
	// p/ps/s are nil and the members plus the fused evaluator live here.
	batch *batchPlan
}

// Spanner exposes the compiled spanner automaton.
func (p *Plan) Spanner() *vsa.Automaton { return p.p }

// SplitterOf exposes the compiled splitter, or nil for sequential-only
// plans.
func (p *Plan) SplitterOf() *core.Splitter { return p.s }

// Vars returns the plan's output variables. Batch plans have no single
// variable list — use BatchVars per slot.
func (p *Plan) Vars() []string {
	if p.p == nil {
		return nil
	}
	return append([]string(nil), p.p.Vars...)
}

// cost estimates the plan's resident memory in bytes for the cache's
// byte budgets: a per-plan baseline (entry bookkeeping, formula
// strings) plus a per-state/per-edge charge for every distinct
// automaton the plan holds. The compiled evaluation caches (byte-class
// tables, lazy DFAs) grow with the same quantities, so the estimate is
// monotone in the real footprint even though it does not measure the
// lazily-built parts.
func (p *Plan) cost() int64 {
	const (
		base       = 512
		perState   = 96
		perEdge    = 48
		perFormula = 1 // per byte of formula text
	)
	c := int64(base)
	c += int64(len(p.Req.Spanner)+len(p.Req.Splitter)+len(p.Req.SplitSpanner)) * perFormula
	add := func(states, edges int) { c += int64(states)*perState + int64(edges)*perEdge }
	if p.p != nil {
		add(p.p.NumStates(), p.p.NumEdges())
	}
	if p.ps != nil && p.ps != p.p {
		add(p.ps.NumStates(), p.ps.NumEdges())
	}
	if p.s != nil {
		a := p.s.Automaton()
		add(a.NumStates(), a.NumEdges())
	}
	if p.batch != nil {
		// A fused plan is charged for every distinct member automaton it
		// holds (the fused DFA's lazily-built state space grows with the
		// members' combined size) plus its own formula text, so N cheap
		// formulas registered as one batch cost the cache roughly what N
		// singleton plans would.
		for _, s := range p.batch.req.Spanners {
			c += int64(len(s)) * perFormula
		}
		for _, a := range p.batch.members {
			add(a.NumStates(), a.NumEdges())
		}
	}
	return c
}

// compilePlan builds a Plan from a request: it compiles the formulas,
// runs the relevant decision procedures under the state limit, picks
// the strategy and warms the evaluation caches. A limit overflow
// (automata.ErrTooLarge) is not an error: the verdict stays unknown and
// the plan degrades to sequential evaluation, which is always correct.
//
// compilePlan deliberately takes no context: it runs under the cache's
// single-flight, and a build started on behalf of one request serves
// every coalesced waiter — cancelling it because the first requester
// went away would fail the others. The decision procedures themselves
// are bounded by the state limit rather than by cancellation.
func compilePlan(req Request, limit int) (*Plan, error) {
	t0 := time.Now()
	plan, err := decidePlan(req, limit)
	if err != nil {
		return nil, err
	}
	plan.warm()
	plan.CompileTime = time.Since(t0)
	return plan, nil
}

// decidePlan is compilePlan up to the strategy: formulas compiled,
// verdicts and DecideTime filled in, nothing warmed yet.
func decidePlan(req Request, limit int) (*Plan, error) {
	if req.Spanner == "" {
		return nil, errors.New("engine: empty spanner formula")
	}
	plan := &Plan{Req: req}
	var err error
	plan.p, err = regexformula.Compile(req.Spanner)
	if err != nil {
		return nil, fmt.Errorf("engine: spanner: %w", err)
	}
	if req.Splitter == "" {
		if req.SplitSpanner != "" {
			return nil, errors.New("engine: split_spanner given without a splitter")
		}
		return plan, nil
	}
	sAuto, err := regexformula.Compile(req.Splitter)
	if err != nil {
		return nil, fmt.Errorf("engine: splitter: %w", err)
	}
	plan.s, err = core.NewSplitter(sAuto)
	if err != nil {
		return nil, fmt.Errorf("engine: splitter: %w", err)
	}
	ps := plan.p // self-splittability unless a split-spanner is given
	if req.SplitSpanner != "" {
		ps, err = regexformula.Compile(req.SplitSpanner)
		if err != nil {
			return nil, fmt.Errorf("engine: split_spanner: %w", err)
		}
	}

	t0 := time.Now()
	defer func() { plan.DecideTime = time.Since(t0) }()
	plan.Verdicts.Disjoint = core.VerdictOf(plan.s.IsDisjoint())
	// Locality is what licenses incremental segmentation of streamed
	// documents (Engine.WillStream): computed here, once, under the plan
	// cache's single-flight, like every other verdict. Only disjoint
	// splitters can be local; an over-budget analysis leaves the verdict
	// unknown and the plan buffers.
	if plan.Verdicts.Disjoint != core.VerdictYes {
		plan.Verdicts.Local = core.VerdictNo
	} else {
		local, err := plan.s.IsLocal(limit)
		switch {
		case errors.Is(err, automata.ErrTooLarge):
			plan.Verdicts.Note = appendNote(plan.Verdicts.Note, "locality undecided: "+err.Error())
		case err != nil:
			return nil, fmt.Errorf("engine: locality: %w", err)
		default:
			plan.Verdicts.Local = core.VerdictOf(local)
		}
	}

	// One dispatcher for both questions: self-splittability is
	// split-correctness with P as its own split-spanner, and
	// SplitCorrectAuto picks the polynomial or the general procedure.
	what, verdict := "self-splittability", &plan.Verdicts.SelfSplittable
	if req.SplitSpanner != "" {
		what, verdict = "split-correctness", &plan.Verdicts.SplitCorrect
	}
	ok, err := core.SplitCorrectAuto(plan.p, ps, plan.s, limit)
	switch {
	case errors.Is(err, automata.ErrTooLarge):
		plan.Verdicts.Note = appendNote(plan.Verdicts.Note, what+" undecided: "+err.Error())
	case err != nil:
		return nil, fmt.Errorf("engine: %s: %w", what, err)
	default:
		*verdict = core.VerdictOf(ok)
		if ok {
			plan.Strategy = StrategySplit
			plan.ps = ps
		}
	}
	return plan, nil
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
// plan's machines.
func (p *Plan) warm() {
	if p.p != nil {
		p.p.Prepare()
	}
	if p.ps != nil {
		p.ps.Prepare()
	}
	if p.s != nil {
		p.s.Automaton().Prepare()
	}
	if p.batch != nil && p.batch.multi != nil {
		// Prepares the fused groups and every member's compiled caches.
		p.batch.multi.Prepare()
	}
}
