// Package core implements the split-correctness framework of Sections 3, 5
// and the reasoning problems built on it: document splitters, the
// composition P ∘ S (Lemma C.1/C.2), the disjointness test (Proposition
// 5.5), the cover condition (Definition 5.2, Lemmas 5.4 and 5.6), the
// split-correctness deciders (Theorem 5.1 in general and the
// polynomial-time Theorem 5.7 procedure for deterministic functional
// automata with disjoint splitters), the canonical split-spanner
// (Proposition 5.9), splittability (Lemma 5.12, Theorem 5.15) and
// self-splittability (Theorems 5.16 and 5.17).
package core

import (
	"fmt"
	"sync"

	"repro/internal/automata"
	"repro/internal/span"
	"repro/internal/vsa"
)

// Splitter is a unary spanner used to segment documents (Section 3). The
// wrapped automaton is validated on construction: it must have exactly one
// variable and be a well-formed functional extended VSet-automaton.
type Splitter struct {
	auto     *vsa.Automaton
	statuses []vsa.Status

	// disjointOnce memoizes IsDisjoint: several decision procedures
	// (locality, the engine's verdicts) gate on it, and the automaton is
	// immutable once wrapped.
	disjointOnce sync.Once
	disjointVal  bool

	// scanOnce memoizes the compiled splitter scanner (splitscan.go);
	// scanVal stays nil for non-disjoint splitters.
	scanOnce sync.Once
	scanVal  *splitScanner

	// cutOnce memoizes the scanner states the cut finder steps
	// (cutfinder.go); reach stays nil for splitters that are not cut safe.
	cutOnce sync.Once
	reach   []int32
}

// NewSplitter wraps a unary automaton as a splitter.
func NewSplitter(a *vsa.Automaton) (*Splitter, error) {
	if a.Arity() != 1 {
		return nil, fmt.Errorf("core: a splitter must be unary, got %d variables", a.Arity())
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid splitter automaton: %w", err)
	}
	st, err := a.Statuses()
	if err != nil {
		return nil, err
	}
	return &Splitter{auto: a, statuses: st}, nil
}

// MustSplitter is NewSplitter for statically known automata.
func MustSplitter(a *vsa.Automaton) *Splitter {
	s, err := NewSplitter(a)
	if err != nil {
		panic(err)
	}
	return s
}

// Automaton returns the underlying unary automaton.
func (s *Splitter) Automaton() *vsa.Automaton { return s.auto }

// Var returns the splitter's variable name (x_S in the paper).
func (s *Splitter) Var() string { return s.auto.Vars[0] }

// Split returns the set of spans S(d), in document order. Disjoint
// splitters run on the compiled one-pass scanner (splitscan.go); the
// rest — and the rare documents on which the scanner bails — evaluate
// through the full Eval path. Both produce byte-identical spans (the
// scanner is fuzz-verified against SplitReference).
func (s *Splitter) Split(doc string) []span.Span {
	if sc := s.scanner(); sc != nil {
		if out, ok := sc.scan(doc); ok {
			if out == nil {
				out = []span.Span{}
			}
			return out
		}
	}
	return s.SplitReference(doc)
}

// SplitReference computes S(d) by full evaluation of the splitter
// automaton plus a relation sort — the semantics Split is defined by,
// retained as the fallback for non-disjoint splitters and as the
// differential-testing oracle for the compiled scanner.
func (s *Splitter) SplitReference(doc string) []span.Span {
	rel := s.auto.Eval(doc)
	rel.Sort()
	out := make([]span.Span, rel.Len())
	for i, t := range rel.Tuples {
		out[i] = t[0]
	}
	return out
}

// Segments returns the substrings selected by the splitter along with
// their spans.
func (s *Splitter) Segments(doc string) []Segment {
	spans := s.Split(doc)
	out := make([]Segment, len(spans))
	for i, sp := range spans {
		out[i] = Segment{Span: sp, Text: sp.In(doc)}
	}
	return out
}

// Segment is one chunk produced by a splitter.
type Segment struct {
	Span span.Span
	Text string
}

// splitter op kinds, classifying the x-operations on an edge.
const (
	sNone  = iota // no x operation
	sOpen         // x⊢
	sClose        // ⊣x
	sWrap         // x⊢ ⊣x (an empty split)
)

func splitOpKind(o vsa.OpSet) int {
	switch o {
	case 0:
		return sNone
	case vsa.Open(0):
		return sOpen
	case vsa.Close(0):
		return sClose
	case vsa.Wrap(0):
		return sWrap
	}
	panic(fmt.Sprintf("core: impossible splitter operation set %v", o))
}

// IsDisjoint implements Proposition 5.5: it decides whether all spans
// produced by the splitter on any document are pairwise disjoint (in the
// paper's overlap sense). The test is a synchronous product of two runs of
// the splitter reading the same document, tracking each run's variable
// status, whether the two spans differ, and whether an overlap has been
// witnessed; a violation is two accepting runs with different, overlapping
// spans. The search space is O(|Q|² · 9 · 4), matching the paper's NL
// bound up to the byte-class bookkeeping. The answer is memoized: the
// automaton is immutable, and both the engine's verdicts and the
// locality procedure gate on disjointness.
func (s *Splitter) IsDisjoint() bool {
	s.disjointOnce.Do(func() { s.disjointVal = s.isDisjoint() })
	return s.disjointVal
}

func (s *Splitter) isDisjoint() bool {
	// A configuration is (q1, q2, st1, st2, differ, overlap): both runs'
	// states and statuses (0 unopened, 1 open, 2 closed), whether the
	// two spans differ, and whether an overlap has been witnessed.
	apply := func(st int32, kind int) (int32, bool) {
		switch kind {
		case sNone:
			return st, true
		case sOpen:
			if st != 0 {
				return 0, false
			}
			return 1, true
		case sClose:
			if st != 1 {
				return 0, false
			}
			return 2, true
		case sWrap:
			if st != 0 {
				return 0, false
			}
			return 2, true
		}
		panic("core: bad op kind")
	}
	// overlapNow applies the local overlap rule: when one run opens its
	// span at a boundary, the spans overlap iff the other run's status
	// right after this boundary is exactly "open" (its span has started
	// and not yet ended). This covers empty spans correctly: an empty
	// span [b+1,b+1⟩ overlaps another span iff that span is open across
	// the boundary.
	overlapNow := func(k1, k2 int, st1After, st2After int32) bool {
		opened1 := k1 == sOpen || k1 == sWrap
		opened2 := k2 == sOpen || k2 == sWrap
		if opened2 && st1After == 1 {
			return true
		}
		if opened1 && st2After == 1 {
			return true
		}
		return false
	}
	var x automata.Explorer
	x.Visit(int32(s.auto.Start), int32(s.auto.Start), 0, 0, 0, 0)
	for id := int32(0); int(id) < x.Len(); id++ {
		c := x.Config(id)
		q1, q2, cst1, cst2, differ, overlap := c[0], c[1], c[2], c[3], c[4], c[5]
		// End of document: both runs may finish with final op sets.
		for _, f1 := range s.auto.States[q1].Finals {
			k1 := splitOpKind(f1)
			st1, ok1 := apply(cst1, k1)
			if !ok1 || st1 != 2 {
				continue
			}
			for _, f2 := range s.auto.States[q2].Finals {
				k2 := splitOpKind(f2)
				st2, ok2 := apply(cst2, k2)
				if !ok2 || st2 != 2 {
					continue
				}
				if (differ == 1 || f1 != f2) && (overlap == 1 || overlapNow(k1, k2, st1, st2)) {
					return false
				}
			}
		}
		// Advance both runs on a shared byte.
		for _, e1 := range s.auto.States[q1].Edges {
			k1 := splitOpKind(e1.Ops)
			st1, ok1 := apply(cst1, k1)
			if !ok1 {
				continue
			}
			for _, e2 := range s.auto.States[q2].Edges {
				if !e1.Class.Intersects(e2.Class) {
					continue
				}
				k2 := splitOpKind(e2.Ops)
				st2, ok2 := apply(cst2, k2)
				if !ok2 {
					continue
				}
				x.Visit(int32(e1.To), int32(e2.To), st1, st2,
					flag(differ == 1 || e1.Ops != e2.Ops),
					flag(overlap == 1 || overlapNow(k1, k2, st1, st2)))
			}
		}
	}
	return true
}

// flag is a Boolean field of an explorer configuration.
func flag(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
