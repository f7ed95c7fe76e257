// Package spanners is a Go implementation of the document-spanner
// split-correctness framework of Doleschal, Kimelfeld, Martens, Nahshon
// and Neven, "Split-Correctness in Information Extraction" (PODS 2019).
//
// A Spanner extracts a relation of spans from a document; a Splitter is a
// unary spanner that segments documents (sentences, paragraphs, N-grams,
// HTTP requests, ...). The package decides, for regular spanners given as
// regex formulas or VSet-automata:
//
//   - Split-correctness: is P = P_S ∘ S? (Theorem 5.1; polynomial for
//     deterministic automata and disjoint splitters per Theorem 5.7)
//   - Splittability: does any split-spanner P_S exist? (Theorem 5.15,
//     via the canonical split-spanner of Proposition 5.9)
//   - Self-splittability: is P = P ∘ S? (Theorems 5.16–5.17)
//
// together with the supporting theory (containment, determinization,
// disjointness, the cover condition) and the Section 6–7 extensions
// (splitter commutativity and subsumption, black-box split constraints,
// regular filters, annotated splitters). Once split-correctness is
// established, ParallelEval evaluates the spanner segment-by-segment on
// a split executor — the use case that motivates the paper.
//
// The subpackages under internal/ implement the machinery; this package
// is the stable façade. See DESIGN.md for the paper-to-code map and
// bench/README.md for the measured serving path.
package spanners

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/regexformula"
	"repro/internal/span"
	"repro/internal/vsa"
)

// Span is a document interval [Start,End⟩ in the paper's 1-based
// convention.
type Span = span.Span

// Tuple assigns one span per variable, positionally.
type Tuple = span.Tuple

// Relation is a set of tuples over named variables.
type Relation = span.Relation

// Spanner is a compiled regular document spanner.
type Spanner struct {
	auto *vsa.Automaton
}

// Splitter is a compiled unary spanner used for segmentation.
type Splitter struct {
	s *core.Splitter
}

// DefaultLimit bounds the state space of the PSPACE-complete decision
// procedures; ErrTooLarge is returned if it is exceeded.
const DefaultLimit = 0 // 0 selects the library default (about one million states)

// Compile parses and compiles a regex formula (Section 4.1 syntax; see
// package regexformula for the concrete grammar) into a spanner.
func Compile(formula string) (*Spanner, error) {
	a, err := regexformula.Compile(formula)
	if err != nil {
		return nil, err
	}
	return &Spanner{a}, nil
}

// MustCompile is Compile for statically known formulas.
func MustCompile(formula string) *Spanner {
	p, err := Compile(formula)
	if err != nil {
		panic(err)
	}
	return p
}

// FromAutomaton wraps an extended VSet-automaton as a Spanner; the
// automaton is validated.
func FromAutomaton(a *vsa.Automaton) (*Spanner, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &Spanner{a}, nil
}

// Automaton exposes the underlying automaton for advanced use.
func (p *Spanner) Automaton() *vsa.Automaton { return p.auto }

// Vars returns the spanner's variables.
func (p *Spanner) Vars() []string { return append([]string(nil), p.auto.Vars...) }

// Eval returns the span relation extracted from the document.
func (p *Spanner) Eval(doc string) *Relation { return p.auto.Eval(doc) }

// Matches reports whether the spanner produces at least one tuple. It
// runs on the lazily determinized, byte-class-compressed DFA, so repeated
// calls on the same spanner amortize to one table lookup per byte.
func (p *Spanner) Matches(doc string) bool { return p.auto.EvalBool(doc) }

// Prepare warms the spanner's evaluation caches (byte-class table,
// compiled transitions, lazy-DFA start state) so the first Eval/Matches
// call does not pay for building them — useful before handing the spanner
// to a worker pool. Prepare freezes the underlying automaton: mutating it
// afterwards panics.
func (p *Spanner) Prepare() { p.auto.Prepare() }

// Determinize returns an equivalent deterministic spanner
// (Proposition 4.4); exponential in the worst case.
func (p *Spanner) Determinize() (*Spanner, error) {
	d, err := p.auto.Determinize(DefaultLimit)
	if err != nil {
		return nil, err
	}
	return &Spanner{d}, nil
}

// IsDeterministic reports whether the spanner's automaton is
// deterministic in the dfVSA sense of Section 4.2.
func (p *Spanner) IsDeterministic() bool { return p.auto.IsDeterministic() }

// Contains decides ⟦p⟧ ⊆ ⟦q⟧ (Theorem 4.1 / 4.3).
func (p *Spanner) Contains(q *Spanner) (bool, error) {
	return vsa.Contained(q.auto, p.auto, DefaultLimit)
}

// EquivalentTo decides ⟦p⟧ = ⟦q⟧.
func (p *Spanner) EquivalentTo(q *Spanner) (bool, error) {
	return vsa.Equivalent(p.auto, q.auto, DefaultLimit)
}

// Union, Project, Join and Minus expose the spanner algebra of
// Appendix A.
func (p *Spanner) Union(q *Spanner) (*Spanner, error) {
	a, err := algebra.Union(p.auto, q.auto)
	if err != nil {
		return nil, err
	}
	return &Spanner{a}, nil
}

// Project restricts the spanner to the given variables.
func (p *Spanner) Project(vars ...string) (*Spanner, error) {
	a, err := algebra.Project(p.auto, vars)
	if err != nil {
		return nil, err
	}
	return &Spanner{a}, nil
}

// Join returns the natural join p ⋈ q.
func (p *Spanner) Join(q *Spanner) (*Spanner, error) {
	a, err := algebra.Join(p.auto, q.auto)
	if err != nil {
		return nil, err
	}
	return &Spanner{a}, nil
}

// Minus returns the difference p ∖ q.
func (p *Spanner) Minus(q *Spanner) (*Spanner, error) {
	a, err := algebra.Difference(p.auto, q.auto, DefaultLimit)
	if err != nil {
		return nil, err
	}
	return &Spanner{a}, nil
}

// CompileSplitter parses a unary regex formula into a splitter.
func CompileSplitter(formula string) (*Splitter, error) {
	a, err := regexformula.Compile(formula)
	if err != nil {
		return nil, err
	}
	s, err := core.NewSplitter(a)
	if err != nil {
		return nil, err
	}
	return &Splitter{s}, nil
}

// MustCompileSplitter is CompileSplitter for statically known formulas.
func MustCompileSplitter(formula string) *Splitter {
	s, err := CompileSplitter(formula)
	if err != nil {
		panic(err)
	}
	return s
}

// SplitterFrom wraps a unary spanner as a splitter.
func SplitterFrom(p *Spanner) (*Splitter, error) {
	s, err := core.NewSplitter(p.auto)
	if err != nil {
		return nil, err
	}
	return &Splitter{s}, nil
}

// WrapSplitter wraps an internal core splitter (used by the library
// subpackage helpers).
func WrapSplitter(s *core.Splitter) *Splitter { return &Splitter{s} }

// Core exposes the underlying core splitter.
func (s *Splitter) Core() *core.Splitter { return s.s }

// Split returns the spans S(d).
func (s *Splitter) Split(doc string) []Span { return s.s.Split(doc) }

// Segments returns the selected substrings with their spans.
func (s *Splitter) Segments(doc string) []core.Segment { return s.s.Segments(doc) }

// IsDisjoint decides whether all splits are pairwise disjoint
// (Proposition 5.5).
func (s *Splitter) IsDisjoint() bool { return s.s.IsDisjoint() }

// IsLocal decides whether the splitter is cut independent: splitting any
// chunk of a document that runs from a span start to a span end yields
// exactly the spans of the whole document's split that the chunk covers.
// That is what lets the engine evaluate a split-correct spanner once per
// run of segments and segment uploads while they stream. Only disjoint
// splitters can be local. The procedure is sound but incomplete: true is
// a machine-checked proof; false means no proof was found, and the engine
// buffers and splits per segment. ErrTooLarge reports a state-budget
// overflow, i.e. an unknown verdict. See internal/core/locality.go for
// the decided property and the procedure.
func (s *Splitter) IsLocal() (bool, error) { return s.s.IsLocal(DefaultLimit) }

// Compose returns the spanner P_S ∘ S (Section 3, Lemma C.2).
func Compose(ps *Spanner, s *Splitter) *Spanner {
	return &Spanner{core.Compose(ps.auto, s.s)}
}

// SplitCorrect decides P = P_S ∘ S by the general Theorem 5.1
// procedure: compose P_S with S, then test equivalence with P.
func SplitCorrect(p, ps *Spanner, s *Splitter) (bool, error) {
	return core.SplitCorrect(p.auto, ps.auto, s.s, DefaultLimit)
}

// SplitCorrectWitness is SplitCorrect returning, on failure, a document
// on which P and P_S ∘ S disagree — the debugging use case of Section 1.
func SplitCorrectWitness(p, ps *Spanner, s *Splitter) (ok bool, witness string, err error) {
	return core.SplitCorrectWitness(p.auto, ps.auto, s.s, DefaultLimit)
}

// SelfSplittable decides P = P ∘ S (Theorems 5.16–5.17), choosing
// between the polynomial and the general procedure as SplitCorrect does.
func SelfSplittable(p *Spanner, s *Splitter) (bool, error) {
	return core.SelfSplittable(p.auto, s.s, DefaultLimit)
}

// Splittable decides whether any split-spanner makes P split-correct for
// the disjoint splitter S (Theorem 5.15); on success the canonical
// split-spanner (Proposition 5.9) is returned as the witness.
func Splittable(p *Spanner, s *Splitter) (bool, *Spanner, error) {
	ok, can, err := core.Splittable(p.auto, s.s, DefaultLimit)
	if err != nil || !ok {
		return false, nil, err
	}
	return true, &Spanner{can}, nil
}

// Canonical returns the canonical split-spanner P_S^can of
// Proposition 5.9.
func Canonical(p *Spanner, s *Splitter) *Spanner {
	return &Spanner{core.Canonical(p.auto, s.s)}
}

// CoverCondition decides Definition 5.2: every output tuple of P is
// contained in some split of S.
func CoverCondition(p *Spanner, s *Splitter) (bool, error) {
	return core.CoverCondition(p.auto, s.s, DefaultLimit)
}

// ParallelEval evaluates the split-spanner ps over the segments of s on
// the given number of workers (≤ 0 means GOMAXPROCS) and returns the
// shifted union — the split-then-distribute evaluation of Section 1,
// run on the split executor of internal/parallel. The result is
// sorted and deduplicated, and is byte-identical for every worker
// count. It is the caller's responsibility (or SplitCorrect's) to
// ensure the plan is equivalent to direct evaluation.
func ParallelEval(ps *Spanner, s *Splitter, doc string, workers int) *Relation {
	segs := parallel.SegmentsOf(doc, s.Split(doc))
	return parallel.SplitEval(ps.auto, segs, workers)
}

// Validate re-checks the spanner's internal invariants; useful after
// hand-building automata.
func (p *Spanner) Validate() error { return p.auto.Validate() }

// String renders a short description.
func (p *Spanner) String() string {
	return fmt.Sprintf("spanner(vars=%v, states=%d)", p.auto.Vars, p.auto.NumStates())
}

func (s *Splitter) String() string {
	return fmt.Sprintf("splitter(var=%s, states=%d)", s.s.Var(), s.s.Automaton().NumStates())
}
