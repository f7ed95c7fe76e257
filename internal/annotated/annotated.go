// Package annotated implements Section 7.3 and Appendix E: annotated
// splitters, which attach a key from a finite set K to every split (in
// analogy to MapReduce key-value pairs), key-spanner mappings that choose
// a split-spanner per key, highlander splitters (disjoint and at most one
// key per split), annotated composition and split-correctness (Lemma E.2,
// Theorem E.3), and annotated splittability via the canonical key-spanner
// mapping (Lemma E.6, Theorem E.7).
package annotated

import (
	"fmt"
	"sort"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/span"
	"repro/internal/vsa"
)

// FinalRef identifies one acceptance alternative of an automaton: state q
// accepting with final operation set Ops. Annotations are attached per
// alternative, which subsumes the paper's per-final-state function τ.
type FinalRef struct {
	State int
	Ops   vsa.OpSet
}

// Splitter is an annotated splitter S_K: a unary automaton whose
// acceptance alternatives carry keys.
type Splitter struct {
	auto *vsa.Automaton
	ann  map[FinalRef]string
}

// New wraps a unary automaton with an annotation map; every acceptance
// alternative must be annotated.
func New(a *vsa.Automaton, ann map[FinalRef]string) (*Splitter, error) {
	if a.Arity() != 1 {
		return nil, fmt.Errorf("annotated: splitter must be unary")
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	for q, st := range a.States {
		for _, f := range st.Finals {
			if _, ok := ann[FinalRef{q, f}]; !ok {
				return nil, fmt.Errorf("annotated: acceptance (state %d, ops %v) has no key", q, f)
			}
		}
	}
	return &Splitter{auto: a, ann: ann}, nil
}

// UniformKey wraps an ordinary splitter, annotating every split with key.
func UniformKey(s *core.Splitter, key string) *Splitter {
	a := s.Automaton()
	ann := map[FinalRef]string{}
	for q, st := range a.States {
		for _, f := range st.Finals {
			ann[FinalRef{q, f}] = key
		}
	}
	out, err := New(a, ann)
	if err != nil {
		panic(err)
	}
	return out
}

// Automaton returns the underlying unary automaton.
func (s *Splitter) Automaton() *vsa.Automaton { return s.auto }

// Keys returns the set of keys in use, sorted.
func (s *Splitter) Keys() []string {
	seen := map[string]bool{}
	var out []string
	for _, k := range s.ann {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// ForKey returns the ordinary splitter S_κ that produces exactly the
// splits annotated with key.
func (s *Splitter) ForKey(key string) (*core.Splitter, error) {
	a := s.auto.Clone()
	for q := range a.States {
		var kept []vsa.OpSet
		for _, f := range a.States[q].Finals {
			if s.ann[FinalRef{q, f}] == key {
				kept = append(kept, f)
			}
		}
		a.States[q].Finals = kept
	}
	return core.NewSplitter(a)
}

// Plain returns the ordinary splitter that forgets the keys.
func (s *Splitter) Plain() (*core.Splitter, error) {
	return core.NewSplitter(s.auto)
}

// KeyedSpan is one annotated split.
type KeyedSpan struct {
	Key  string
	Span span.Span
}

// SplitAnn returns the annotated span relation S_K(d). A (span, key) pair
// is produced once even if several runs yield it.
func (s *Splitter) SplitAnn(doc string) []KeyedSpan {
	var out []KeyedSpan
	seen := map[KeyedSpan]bool{}
	for _, key := range s.Keys() {
		sk, err := s.ForKey(key)
		if err != nil {
			panic(err)
		}
		for _, sp := range sk.Split(doc) {
			ks := KeyedSpan{key, sp}
			if !seen[ks] {
				seen[ks] = true
				out = append(out, ks)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Span != out[j].Span {
			return out[i].Span.Compare(out[j].Span) < 0
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// IsHighlander reports whether the splitter is an annotated highlander
// splitter (Appendix E): disjoint, and for every document and split there
// is at most one key. The key-uniqueness test is a synchronous two-run
// product searching for two accepting runs with equal spans and different
// keys.
func (s *Splitter) IsHighlander() (bool, error) {
	plain, err := s.Plain()
	if err != nil {
		return false, err
	}
	if !plain.IsDisjoint() {
		return false, nil
	}
	return s.uniqueKeys(), nil
}

// uniqueKeys reports whether no document admits two accepting runs with
// the same span but different keys. Equal spans take equal operations at
// every boundary, and New validated the automaton, so a run's status is
// its state's: a configuration is just the two runs' states (q1, q2).
func (s *Splitter) uniqueKeys() bool {
	var x automata.Explorer
	x.Visit(int32(s.auto.Start), int32(s.auto.Start))
	for id := int32(0); int(id) < x.Len(); id++ {
		c := x.Config(id)
		q1, q2 := int(c[0]), int(c[1])
		for _, f1 := range s.auto.States[q1].Finals {
			for _, f2 := range s.auto.States[q2].Finals {
				if f1 == f2 && s.ann[FinalRef{q1, f1}] != s.ann[FinalRef{q2, f2}] {
					return false
				}
			}
		}
		for _, e1 := range s.auto.States[q1].Edges {
			for _, e2 := range s.auto.States[q2].Edges {
				if e1.Ops == e2.Ops && e1.Class.Intersects(e2.Class) {
					x.Visit(int32(e1.To), int32(e2.To))
				}
			}
		}
	}
	return true
}

// KeyMapping assigns a split-spanner to every key.
type KeyMapping map[string]*vsa.Automaton

// Compose builds the spanner P_S ∘ S_K of Section 7.3: evaluate the
// key-appropriate split-spanner on every annotated split and shift. Per
// Lemma E.2 it is the union over keys of the compositions with the
// key-restricted splitters.
func (s *Splitter) Compose(m KeyMapping) (*vsa.Automaton, error) {
	keys := s.Keys()
	if len(keys) == 0 {
		// A splitter with no accepting alternative composes to the empty
		// spanner over the variables of any mapping entry.
		for _, ps := range m {
			return vsa.NewAutomaton(ps.Vars...), nil
		}
		return vsa.NewAutomaton(), nil
	}
	var result *vsa.Automaton
	for _, key := range keys {
		ps, ok := m[key]
		if !ok {
			return nil, fmt.Errorf("annotated: key %q has no split-spanner", key)
		}
		sk, err := s.ForKey(key)
		if err != nil {
			return nil, err
		}
		part := core.Compose(ps, sk)
		if result == nil {
			result = part
			continue
		}
		result, err = unionAligned(result, part)
		if err != nil {
			return nil, err
		}
	}
	return result, nil
}

// unionAligned unions two union-compatible spanners (local helper to avoid
// an import cycle with the algebra package, which depends on nothing here
// but keeps the dependency graph flat).
func unionAligned(a, b *vsa.Automaton) (*vsa.Automaton, error) {
	b2, err := b.ReorderVars(a.Vars)
	if err != nil {
		return nil, err
	}
	out := vsa.NewAutomaton(a.Vars...)
	for _, src := range []*vsa.Automaton{a, b2} {
		off := out.NumStates()
		for range src.States {
			out.AddState()
		}
		for q, st := range src.States {
			for _, e := range st.Edges {
				out.AddEdge(q+off, e.Ops, e.Class, e.To+off)
			}
			for _, f := range st.Finals {
				out.AddFinal(q+off, f)
			}
		}
		st := src.States[src.Start]
		for _, e := range st.Edges {
			out.AddEdge(out.Start, e.Ops, e.Class, e.To+off)
		}
		for _, f := range st.Finals {
			out.AddFinal(out.Start, f)
		}
	}
	return out, nil
}

// SplitCorrect decides annotated split-correctness (Theorem E.3):
// P = P_S ∘ S_K, via the algebraic characterization of Lemma E.2.
func (s *Splitter) SplitCorrect(p *vsa.Automaton, m KeyMapping, limit int) (bool, error) {
	comp, err := s.Compose(m)
	if err != nil {
		return false, err
	}
	return vsa.Equivalent(p, comp, limit)
}

// Canonical builds the canonical key-spanner mapping of Lemma E.6:
// for each key κ, the canonical split-spanner of P with respect to S_κ.
func (s *Splitter) Canonical(p *vsa.Automaton) (KeyMapping, error) {
	m := KeyMapping{}
	for _, key := range s.Keys() {
		sk, err := s.ForKey(key)
		if err != nil {
			return nil, err
		}
		m[key] = core.Canonical(p, sk)
	}
	return m, nil
}

// Splittable decides annotated splittability for highlander splitters
// (Theorem E.7): P is splittable by S_K iff it is split-correct via the
// canonical key-spanner mapping.
func (s *Splitter) Splittable(p *vsa.Automaton, limit int) (bool, KeyMapping, error) {
	hl, err := s.IsHighlander()
	if err != nil {
		return false, nil, err
	}
	if !hl {
		return false, nil, fmt.Errorf("annotated: splittability requires a highlander splitter")
	}
	m, err := s.Canonical(p)
	if err != nil {
		return false, nil, err
	}
	ok, err := s.SplitCorrect(p, m, limit)
	if err != nil || !ok {
		return false, nil, err
	}
	return true, m, nil
}

// ComposeBrute evaluates (P_S ∘ S_K)(doc) by the definition in Section
// 7.3, as the executable specification for tests.
func (s *Splitter) ComposeBrute(m KeyMapping, doc string) (*span.Relation, error) {
	var out *span.Relation
	for _, ks := range s.SplitAnn(doc) {
		ps, ok := m[ks.Key]
		if !ok {
			return nil, fmt.Errorf("annotated: key %q has no split-spanner", ks.Key)
		}
		rel := ps.Eval(ks.Span.In(doc))
		if out == nil {
			out = span.NewRelation(rel.Vars...)
		} else {
			aligned, err := rel.Project(out.Vars)
			if err != nil {
				return nil, err
			}
			rel = aligned
		}
		for _, t := range rel.Tuples {
			out.Add(t.Shift(ks.Span))
		}
	}
	if out == nil {
		for _, ps := range m {
			out = span.NewRelation(ps.Vars...)
			break
		}
		if out == nil {
			out = span.NewRelation()
		}
	}
	out.Dedupe()
	return out, nil
}
