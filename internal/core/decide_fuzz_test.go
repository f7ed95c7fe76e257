package core

import (
	"math/rand"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/regexformula"
)

// FuzzDisjointVsBruteForce holds IsDisjoint (Proposition 5.5, a product
// search of two splitter runs) to its definition on a fuzzed unary
// splitter formula: when two spans of SplitReference overlap on a
// document of length ≤ 6, IsDisjoint must say no. A no without such a
// document is possible (the overlap may need a longer one), so every
// verdict must also be isDisjointRef's. The documents are every word
// over one byte per atom of the splitter's byte classes — for the
// {a, b} formulas of the seeds, a, b and one byte standing for the
// rest — so no document of length ≤ 6 behaves differently from one of
// them. Formulas with more than three atoms, or automata over 32
// states, are skipped to keep an execution small.
func FuzzDisjointVsBruteForce(f *testing.F) {
	for _, src := range []string{
		"x{.*}", ".*x{.}.*", ".*x{..}.*", "x{ab}b|a(x{bb})", "x{a*}b.*",
		"x{a}|x{aa}", "x{a}.*|x{aa}.*", "x{a}|a(x{a})", "x{}a*", "x{}a*|a(x{})a*",
		"x{}a*|x{aa}a*", "x{}a*|x{a}a*", "x{a}a*|a(x{})a*",
		"x{a+}b*", "x{.}.*|.(x{.}).*",
	} {
		f.Add(src)
	}
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 8; i++ {
		f.Add(randomUnaryFormula(rng, "x", 2))
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 48 {
			t.Skip()
		}
		a, err := regexformula.Compile(src)
		if err != nil || a.Arity() != 1 || a.NumStates() > 32 {
			t.Skip()
		}
		s, err := NewSplitter(a)
		if err != nil {
			t.Skip()
		}
		atoms := alphabet.Atoms(a.Classes())
		if len(atoms) > 3 {
			t.Skip()
		}
		var sigma []byte
		for _, atom := range atoms {
			b, _ := atom.Min()
			sigma = append(sigma, b)
		}
		witness, found := "", false
		for _, d := range docs(string(sigma), 6) {
			spans := s.SplitReference(d)
			for i := 0; i < len(spans) && !found; i++ {
				for j := i + 1; j < len(spans); j++ {
					if spans[i].Overlaps(spans[j]) {
						witness, found = d, true
						break
					}
				}
			}
			if found {
				break
			}
		}
		got := s.IsDisjoint()
		if got && found {
			t.Fatalf("IsDisjoint(%s) = true, but spans overlap on %q", src, witness)
		}
		if ref := isDisjointRef(s); got != ref {
			t.Fatalf("IsDisjoint(%s) = %v, the reference search says %v (spans overlap on a document of length ≤ 6: %v)", src, got, ref, found)
		}
	})
}

// isDisjointRef is IsDisjoint's product search as it was before it moved
// onto automata.Explorer, keyed by a Go map. It is kept here, in a test
// file only, as FuzzDisjointVsBruteForce's oracle for the splitters whose
// overlap needs a document longer than the brute force reaches.
func isDisjointRef(s *Splitter) bool {
	type cfg struct {
		q1, q2   int
		st1, st2 int // 0 unopened, 1 open, 2 closed
		differ   bool
		overlap  bool
	}
	apply := func(st, kind int) (int, bool) {
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
	overlapNow := func(k1, k2, st1After, st2After int) bool {
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
	seen := map[cfg]bool{}
	start := cfg{s.auto.Start, s.auto.Start, 0, 0, false, false}
	queue := []cfg{start}
	seen[start] = true
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		// End of document: both runs may finish with final op sets.
		for _, f1 := range s.auto.States[c.q1].Finals {
			k1 := splitOpKind(f1)
			st1, ok1 := apply(c.st1, k1)
			if !ok1 || st1 != 2 {
				continue
			}
			for _, f2 := range s.auto.States[c.q2].Finals {
				k2 := splitOpKind(f2)
				st2, ok2 := apply(c.st2, k2)
				if !ok2 || st2 != 2 {
					continue
				}
				differ := c.differ || f1 != f2
				overlap := c.overlap || overlapNow(k1, k2, st1, st2)
				if differ && overlap {
					return false
				}
			}
		}
		// Advance both runs on a shared byte.
		for _, e1 := range s.auto.States[c.q1].Edges {
			k1 := splitOpKind(e1.Ops)
			st1, ok1 := apply(c.st1, k1)
			if !ok1 {
				continue
			}
			for _, e2 := range s.auto.States[c.q2].Edges {
				if !e1.Class.Intersects(e2.Class) {
					continue
				}
				k2 := splitOpKind(e2.Ops)
				st2, ok2 := apply(c.st2, k2)
				if !ok2 {
					continue
				}
				nc := cfg{
					q1: e1.To, q2: e2.To,
					st1: st1, st2: st2,
					differ:  c.differ || e1.Ops != e2.Ops,
					overlap: c.overlap || overlapNow(k1, k2, st1, st2),
				}
				if !seen[nc] {
					seen[nc] = true
					queue = append(queue, nc)
				}
			}
		}
	}
	return true
}

// FuzzPolyVsGeneral holds the polynomial procedures of Lemma 5.6 and
// Theorem 5.7 to the general ones on spanners of one to three variables:
// for a random deterministic P (randomFormula) and a deterministic
// disjoint splitter S, CoverConditionPoly(P, S) = CoverCondition(P, S)
// and SplitCorrectPoly(P, P, S) = SplitCorrect(P, P, S). The random
// differential tests draw unary P only; wider tuples take the status
// vectors, batches and empty-hull cases of several variables. S is a
// random formula or one of three splitters that cover much (the whole
// document, and two kinds of b-separated blocks), without which the
// cover condition almost always fails and the rest of Theorem 5.7 is
// never reached.
func FuzzPolyVsGeneral(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(seed%3), uint8(seed%4))
	}
	f.Fuzz(func(t *testing.T, seed int64, nvars, splitter uint8) {
		rng := rand.New(rand.NewSource(seed))
		vars := []string{"y", "z", "w"}[:1+nvars%3]
		pSrc := randomFormula(rng, vars, 2)
		sSrc := randomUnaryFormula(rng, "x", 2)
		if k := splitter % 4; k > 0 {
			sSrc = []string{"x{.*}", "(.*b)?(x{[^b]*})(b.*)?", "(a*b)*(x{a*})(b.*)?"}[k-1]
		}
		p, err := regexformula.Compile(pSrc)
		if err != nil {
			t.Fatalf("randomFormula drew %s: %v", pSrc, err)
		}
		sAuto, err := regexformula.Compile(sSrc)
		if err != nil || sAuto.Arity() != 1 {
			t.Skip()
		}
		pd, err1 := p.Determinize(0)
		sd, err2 := sAuto.Determinize(0)
		if err1 != nil || err2 != nil {
			t.Skip()
		}
		s, err := NewSplitter(sd)
		if err != nil || !s.IsDisjoint() {
			t.Skip()
		}
		cover, err := CoverCondition(pd, s, 0)
		if err != nil {
			t.Skip()
		}
		coverPoly, err := CoverConditionPoly(pd, s)
		if err != nil {
			t.Fatalf("CoverConditionPoly: %v\nP=%s\nS=%s", err, pSrc, sSrc)
		}
		if coverPoly != cover {
			t.Fatalf("CoverConditionPoly = %v, CoverCondition = %v\nP=%s\nS=%s", coverPoly, cover, pSrc, sSrc)
		}
		correct, err := SplitCorrect(pd, pd, s, 0)
		if err != nil {
			t.Skip()
		}
		correctPoly, err := SplitCorrectPoly(pd, pd, s)
		if err != nil {
			t.Fatalf("SplitCorrectPoly: %v\nP=%s\nS=%s", err, pSrc, sSrc)
		}
		if correctPoly != correct {
			t.Fatalf("SplitCorrectPoly(P, P, S) = %v, SplitCorrect = %v\nP=%s\nS=%s", correctPoly, correct, pSrc, sSrc)
		}
	})
}
