package annotated

import (
	"testing"

	"repro/internal/alphabet"
	"repro/internal/regexformula"
	"repro/internal/vsa"
)

// FuzzHighlanderVsBruteForce holds IsHighlander (Appendix E) to its
// definition. A fuzzed unary splitter formula gets key k1 or k2 on each
// acceptance alternative, by the bits of a fuzzed word in the order of
// states and their finals. When SplitAnn returns one span under two keys,
// or two overlapping spans, on some document of length ≤ 5 — every word
// over one byte per atom of the splitter's byte classes — IsHighlander
// must say no. Its verdict must always be IsDisjoint ∧ uniqueKeysRef,
// the map-keyed search uniqueKeys replaced, kept as the oracle for the
// splitters whose violation needs a longer document. Formulas with more
// than three atoms, or automata over 32 states, are skipped to keep an
// execution small.
func FuzzHighlanderVsBruteForce(f *testing.F) {
	for _, seed := range []struct {
		src  string
		keys uint64
	}{
		{"x{.*}", 0}, {".*x{.}.*", 1}, {"x{a}.*|x{a}b*", 0b10}, {"x{a}.*|x{a}b*", 0b01},
		{"x{a}|x{aa}", 0b10}, {"x{a}b|a(x{b})", 0b01}, {"x{}a*|a(x{})a*", 0b110},
		{"x{a*}b.*", 0}, {"(x{a})b*|x{ab}", 0b10}, {"x{.}.*|.(x{.}).*", 0b1010},
		{".*x{..}.*", 0}, {"x{a}.*|x{aa}.*", 0b01},
	} {
		f.Add(seed.src, seed.keys)
	}
	f.Fuzz(func(t *testing.T, src string, keys uint64) {
		if len(src) > 48 {
			t.Skip()
		}
		a, err := regexformula.Compile(src)
		if err != nil || a.Arity() != 1 || a.NumStates() > 32 {
			t.Skip()
		}
		ann := map[FinalRef]string{}
		i := 0
		for q, st := range a.States {
			for _, fin := range st.Finals {
				ann[FinalRef{q, fin}] = [2]string{"k1", "k2"}[keys>>(i%64)&1]
				i++
			}
		}
		s, err := New(a, ann)
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
		for _, d := range docs(string(sigma), 5) {
			ks := s.SplitAnn(d)
			for i := 0; i < len(ks) && !found; i++ {
				for j := i + 1; j < len(ks); j++ {
					if ks[i].Span == ks[j].Span || ks[i].Span.Overlaps(ks[j].Span) {
						witness, found = d, true
						break
					}
				}
			}
			if found {
				break
			}
		}
		got, err := s.IsHighlander()
		if err != nil {
			t.Fatal(err)
		}
		if got && found {
			t.Fatalf("IsHighlander(%s, keys %b) = true, but SplitAnn(%q) = %v", src, keys, witness, s.SplitAnn(witness))
		}
		plain, err := s.Plain()
		if err != nil {
			t.Fatal(err)
		}
		if want := plain.IsDisjoint() && uniqueKeysRef(s); got != want {
			t.Fatalf("IsHighlander(%s, keys %b) = %v, IsDisjoint ∧ uniqueKeysRef says %v (a violation on a document of length ≤ 5: %v)", src, keys, got, want, found)
		}
	})
}

// uniqueKeysRef is uniqueKeys as it was before it moved onto
// automata.Explorer: a breadth-first search over two runs' states and
// statuses keyed by a Go map, with its own status step. It is kept here,
// in a test file only, as FuzzHighlanderVsBruteForce's oracle.
func uniqueKeysRef(s *Splitter) bool {
	type cfg struct {
		q1, q2   int
		st1, st2 int
	}
	apply := func(st int, o vsa.OpSet) (int, bool) {
		switch o {
		case 0:
			return st, true
		case vsa.Open(0):
			if st != 0 {
				return 0, false
			}
			return 1, true
		case vsa.Close(0):
			if st != 1 {
				return 0, false
			}
			return 2, true
		case vsa.Wrap(0):
			if st != 0 {
				return 0, false
			}
			return 2, true
		}
		return 0, false
	}
	seen := map[cfg]bool{}
	start := cfg{s.auto.Start, s.auto.Start, 0, 0}
	queue := []cfg{start}
	seen[start] = true
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, f1 := range s.auto.States[c.q1].Finals {
			n1, ok1 := apply(c.st1, f1)
			if !ok1 || n1 != 2 {
				continue
			}
			for _, f2 := range s.auto.States[c.q2].Finals {
				n2, ok2 := apply(c.st2, f2)
				if !ok2 || n2 != 2 {
					continue
				}
				if f1 == f2 && s.ann[FinalRef{c.q1, f1}] != s.ann[FinalRef{c.q2, f2}] {
					return false
				}
			}
		}
		for _, e1 := range s.auto.States[c.q1].Edges {
			n1, ok1 := apply(c.st1, e1.Ops)
			if !ok1 {
				continue
			}
			for _, e2 := range s.auto.States[c.q2].Edges {
				if e1.Ops != e2.Ops || !e1.Class.Intersects(e2.Class) {
					continue
				}
				n2, ok2 := apply(c.st2, e2.Ops)
				if !ok2 {
					continue
				}
				nc := cfg{e1.To, e2.To, n1, n2}
				if !seen[nc] {
					seen[nc] = true
					queue = append(queue, nc)
				}
			}
		}
	}
	return true
}
