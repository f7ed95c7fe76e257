package core

import (
	"fmt"

	"repro/internal/automata"
	"repro/internal/vsa"
)

// Canonical constructs the canonical split-spanner P_S^can of Section 5.2
// (Proposition 5.9): on every document d it selects exactly the tuples t
// for which some larger document d' exists with a split s ∈ S(d') whose
// segment is d and with t ≫ s ∈ P(d'). The construction runs P and S
// jointly: a pre-closure of state pairs reachable on guessed prefixes, a
// product phase over the actual input (the segment), and a post
// co-reachability check for guessed suffixes. It is polynomial in |P| and
// |S|. For disjoint splitters, Lemma 5.12 makes P_S^can the canonical
// witness: P is splittable by S iff P = P_S^can ∘ S.
func Canonical(p *vsa.Automaton, s *Splitter) *vsa.Automaton {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("core: Canonical: invalid spanner: %v", err))
	}
	sa := s.auto
	type pair struct{ qp, qs int }

	// Pre-closure: pairs reachable from the starts by jointly consuming
	// guessed prefix bytes (no variable operations before the split), in
	// the order the search first meets them.
	var pre automata.Explorer
	pre.Visit(int32(p.Start), int32(sa.Start))
	for i := int32(0); int(i) < pre.Len(); i++ {
		c := pre.Config(i)
		qp, qs := c[0], c[1]
		for _, pe := range p.States[qp].Edges {
			if pe.Ops != 0 {
				continue
			}
			for _, se := range sa.States[qs].Edges {
				if splitOpKind(se.Ops) == sNone && pe.Class.Intersects(se.Class) {
					pre.Visit(int32(pe.To), int32(se.To))
				}
			}
		}
	}

	// Post co-reachability: pairs from which a guessed suffix leads both
	// automata to acceptance with no further operations.
	post := map[pair]bool{}
	for qp := range p.States {
		if !hasFinal(p, qp, 0) {
			continue
		}
		for qs := range sa.States {
			for _, f := range sa.States[qs].Finals {
				if splitOpKind(f) == sNone {
					post[pair{qp, qs}] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for qp := range p.States {
			for qs := range sa.States {
				pr := pair{qp, qs}
				if post[pr] {
					continue
				}
				for _, pe := range p.States[qp].Edges {
					if pe.Ops != 0 {
						continue
					}
					for _, se := range sa.States[qs].Edges {
						if splitOpKind(se.Ops) == sNone && pe.Class.Intersects(se.Class) &&
							post[pair{pe.To, se.To}] {
							post[pr] = true
							changed = true
						}
					}
				}
			}
		}
	}

	// out's state i+1 is the product phase's configuration i; state 0 is
	// the start, which every pre-closure pair enters the segment from.
	out := vsa.NewAutomaton(p.Vars...)
	var prod automata.Explorer
	visit := func(qp, qs int) int {
		id, added, _ := prod.Visit(int32(qp), int32(qs))
		if added {
			out.AddState()
		}
		return int(id) + 1
	}
	// Entry edges and ε-input finals from every pre-closure pair.
	for i := int32(0); int(i) < pre.Len(); i++ {
		c := pre.Config(i)
		pr := pair{int(c[0]), int(c[1])}
		for _, se := range sa.States[pr.qs].Edges {
			switch splitOpKind(se.Ops) {
			case sOpen:
				for _, pe := range p.States[pr.qp].Edges {
					cls := se.Class.Intersect(pe.Class)
					if !cls.IsEmpty() {
						out.AddEdge(out.Start, pe.Ops, cls, visit(pe.To, se.To))
					}
				}
			case sWrap:
				// Empty segment mid-document: P completes at this boundary
				// and both automata need an accepting suffix.
				for _, pe := range p.States[pr.qp].Edges {
					if pe.Class.Intersects(se.Class) && post[pair{pe.To, se.To}] {
						out.AddFinal(out.Start, pe.Ops)
					}
				}
			}
		}
		for _, sf := range sa.States[pr.qs].Finals {
			if splitOpKind(sf) == sWrap {
				// Empty segment at the end of d'.
				for _, pf := range p.States[pr.qp].Finals {
					out.AddFinal(out.Start, pf)
				}
			}
		}
	}
	// Product phase over the segment.
	for i := int32(0); int(i) < prod.Len(); i++ {
		c := prod.Config(i)
		pr, from := pair{int(c[0]), int(c[1])}, int(i)+1
		for _, se := range sa.States[pr.qs].Edges {
			switch splitOpKind(se.Ops) {
			case sNone:
				for _, pe := range p.States[pr.qp].Edges {
					cls := se.Class.Intersect(pe.Class)
					if !cls.IsEmpty() {
						out.AddEdge(from, pe.Ops, cls, visit(pe.To, se.To))
					}
				}
			case sClose:
				// The segment ends here; P may still fire operations at
				// this boundary while consuming the first suffix byte.
				for _, pe := range p.States[pr.qp].Edges {
					if pe.Class.Intersects(se.Class) && post[pair{pe.To, se.To}] {
						out.AddFinal(from, pe.Ops)
					}
				}
			}
		}
		for _, sf := range sa.States[pr.qs].Finals {
			if splitOpKind(sf) == sClose {
				// Segment and document end together.
				for _, pf := range p.States[pr.qp].Finals {
					out.AddFinal(from, pf)
				}
			}
		}
	}
	out.MergeEdges()
	return out.Trim()
}

// Splittable decides the Splittability problem for disjoint splitters
// (Theorem 5.15): does any split-spanner P_S with P = P_S ∘ S exist? By
// Lemma 5.12 this holds iff P = P_S^can ∘ S, so the canonical
// split-spanner is constructed and split-correctness tested; when the
// answer is positive the canonical split-spanner is returned as the
// witness. Splittability for non-disjoint splitters is open (Section 8)
// and yields an error.
func Splittable(p *vsa.Automaton, s *Splitter, limit int) (bool, *vsa.Automaton, error) {
	if !s.IsDisjoint() {
		return false, nil, fmt.Errorf("core: Splittable requires a disjoint splitter (decidability for non-disjoint splitters is an open problem)")
	}
	can := Canonical(p, s)
	ok, err := SplitCorrect(p, can, s, limit)
	if err != nil {
		return false, nil, err
	}
	if !ok {
		return false, nil, nil
	}
	return true, can, nil
}

// SelfSplittable decides Self-splittability, P = P ∘ S: split-correctness
// with P as its own split-spanner, by the general equivalence test
// (Theorem 5.16, guarded by limit). SelfSplittablePoly is the polynomial
// route of Theorem 5.17.
func SelfSplittable(p *vsa.Automaton, s *Splitter, limit int) (bool, error) {
	return SplitCorrect(p, p, s, limit)
}

// SelfSplittablePoly is the polynomial-time route of Theorem 5.17 for
// deterministic functional automata and disjoint splitters.
func SelfSplittablePoly(p *vsa.Automaton, s *Splitter) (bool, error) {
	return SplitCorrectPoly(p, p, s)
}
