package core

import (
	"math/rand"
	"testing"

	"repro/internal/regexformula"
)

// randomUnaryFormula generates a random formula with exactly one capture
// of the given name, suitable as a spanner or splitter. Depth-bounded so
// compiled automata stay small.
func randomUnaryFormula(rng *rand.Rand, varName string, depth int) string {
	var piece func(d int, allowVar bool) string
	piece = func(d int, allowVar bool) string {
		if d == 0 {
			return string(rune('a' + rng.Intn(2)))
		}
		switch rng.Intn(6) {
		case 0:
			return piece(d-1, allowVar) + piece(d-1, false)
		case 1:
			return piece(d-1, false) + piece(d-1, allowVar)
		case 2:
			return "(" + piece(d-1, false) + ")*"
		case 3:
			return "(" + piece(d-1, false) + "|" + piece(d-1, false) + ")"
		case 4:
			if allowVar {
				return "(" + varName + "{" + piece(d-1, false) + "})"
			}
			return piece(d-1, false)
		default:
			return string(rune('a' + rng.Intn(2)))
		}
	}
	inner := piece(depth, false)
	// Wrap so the formula always has exactly one capture and a context.
	ctx := []string{".*", "a*", "(a|b)*", ""}
	return ctx[rng.Intn(len(ctx))] + "(" + varName + "{" + inner + "})" + ctx[rng.Intn(len(ctx))]
}

// randomFormula generates a random functional formula over vars, each
// variable exactly once on every path: a variable's capture comes before
// the rest, after it or around it, or the formula is a union of two such.
// Captures and gaps may be empty, so empty spans and tuples whose spans
// all sit at one boundary come up. Depth-bounded like randomUnaryFormula.
func randomFormula(rng *rand.Rand, vars []string, depth int) string {
	var plain func(d int) string // variable free, never empty
	plain = func(d int) string {
		if d <= 0 {
			return [...]string{"a", "a", "b", "."}[rng.Intn(4)]
		}
		switch rng.Intn(4) {
		case 0:
			return plain(d-1) + plain(d-1)
		case 1:
			return "(" + plain(d-1) + ")*"
		case 2:
			return "(" + plain(d-1) + "|" + plain(d-1) + ")"
		default:
			return plain(0)
		}
	}
	maybe := func(d int) string { // plain or empty
		if rng.Intn(4) == 0 {
			return ""
		}
		return plain(d)
	}
	var with func(vs []string, d int) string
	with = func(vs []string, d int) string {
		if len(vs) == 0 {
			return maybe(d)
		}
		v, rest := vs[0], vs[1:]
		choice := rng.Intn(4)
		if d <= 0 {
			choice = rng.Intn(3)
		}
		switch choice {
		case 0:
			return "(" + v + "{" + maybe(d-1) + "})" + maybe(d-1) + with(rest, d-1)
		case 1:
			return with(rest, d-1) + maybe(d-1) + "(" + v + "{" + maybe(d-1) + "})"
		case 2:
			return "(" + v + "{" + maybe(d-1) + with(rest, d-1) + maybe(d-1) + "})"
		default:
			return "(" + with(vs, d-1) + "|" + with(vs, d-1) + ")"
		}
	}
	ctx := []string{".*", "a*", "(a|b)*", ""}
	return ctx[rng.Intn(len(ctx))] + with(vars, depth) + ctx[rng.Intn(len(ctx))]
}

// TestRandomSplitCorrectnessDifferential cross-validates the general
// split-correctness decider against brute-force enumeration, and the
// polynomial decider against the general one whenever its preconditions
// hold, on randomly generated (P, P_S, S) triples.
func TestRandomSplitCorrectnessDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	checked, polyChecked := 0, 0
	for i := 0; i < 120; i++ {
		pSrc := randomUnaryFormula(rng, "y", 2)
		psSrc := randomUnaryFormula(rng, "y", 2)
		sSrc := randomUnaryFormula(rng, "x", 2)
		p, err := regexformula.Compile(pSrc)
		if err != nil || p.Arity() != 1 {
			continue
		}
		ps, err := regexformula.Compile(psSrc)
		if err != nil || ps.Arity() != 1 {
			continue
		}
		sAuto, err := regexformula.Compile(sSrc)
		if err != nil || sAuto.Arity() != 1 {
			continue
		}
		s, err := NewSplitter(sAuto)
		if err != nil {
			continue
		}
		want := splitCorrectBrute(p, ps, s, "ab", 5)
		got, err := SplitCorrect(p, ps, s, 0)
		if err != nil {
			t.Fatalf("instance %d (%s, %s, %s): %v", i, pSrc, psSrc, sSrc, err)
		}
		// Brute force over length ≤ 5 can miss longer counterexamples, so
		// got=false/want=true is possible; got=true/want=false is a bug.
		if got && !want {
			t.Fatalf("instance %d: SplitCorrect says true, brute force found a counterexample\nP=%s\nPS=%s\nS=%s", i, pSrc, psSrc, sSrc)
		}
		if got != want {
			// Find the counterexample beyond the brute-force horizon to
			// confirm the decider.
			ok, witness, err := SplitCorrectWitness(p, ps, s, 0)
			if err != nil || ok {
				t.Fatalf("instance %d: no witness for claimed violation", i)
			}
			if p.Eval(witness).Equal(ComposeBrute(ps, s, witness)) {
				t.Fatalf("instance %d: witness %q does not separate", i, witness)
			}
		}
		checked++
		// Polynomial route, when applicable.
		pd, err1 := p.Determinize(0)
		psd, err2 := ps.Determinize(0)
		sd, err3 := sAuto.Determinize(0)
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		sDet, err := NewSplitter(sd)
		if err != nil || !sDet.IsDisjoint() {
			continue
		}
		gotPoly, err := SplitCorrectPoly(pd, psd, sDet)
		if err != nil {
			t.Fatalf("instance %d: poly: %v", i, err)
		}
		if gotPoly != got {
			t.Fatalf("instance %d: poly=%v general=%v\nP=%s\nPS=%s\nS=%s", i, gotPoly, got, pSrc, psSrc, sSrc)
		}
		polyChecked++
	}
	if checked < 60 {
		t.Fatalf("too few random instances checked: %d", checked)
	}
	if polyChecked < 10 {
		t.Fatalf("too few polynomial instances checked: %d", polyChecked)
	}
}

// TestRandomCoverDifferential cross-validates the cover condition
// deciders on random instances.
func TestRandomCoverDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	checked := 0
	for i := 0; i < 120; i++ {
		pSrc := randomUnaryFormula(rng, "y", 2)
		sSrc := randomUnaryFormula(rng, "x", 2)
		p, err := regexformula.Compile(pSrc)
		if err != nil || p.Arity() != 1 {
			continue
		}
		sAuto, err := regexformula.Compile(sSrc)
		if err != nil || sAuto.Arity() != 1 {
			continue
		}
		s, err := NewSplitter(sAuto)
		if err != nil {
			continue
		}
		want := coverBrute(p, s, "ab", 5)
		got, err := CoverCondition(p, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got && !want {
			t.Fatalf("instance %d: CoverCondition true but brute force found uncovered tuple\nP=%s\nS=%s", i, pSrc, sSrc)
		}
		pd, err1 := p.Determinize(0)
		sd, err2 := sAuto.Determinize(0)
		if err1 == nil && err2 == nil {
			if sDet := MustSplitter(sd); sDet.IsDisjoint() {
				gotPoly, err := CoverConditionPoly(pd, sDet)
				if err != nil {
					t.Fatal(err)
				}
				if gotPoly != got {
					t.Fatalf("instance %d: cover poly=%v general=%v\nP=%s\nS=%s", i, gotPoly, got, pSrc, sSrc)
				}
			}
		}
		checked++
	}
	if checked < 60 {
		t.Fatalf("too few random instances checked: %d", checked)
	}
}

// TestRandomComposeDifferential cross-validates the Lemma C.2 composition
// construction against its definition on random instances.
func TestRandomComposeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9000))
	checked := 0
	for i := 0; i < 80; i++ {
		psSrc := randomUnaryFormula(rng, "y", 2)
		sSrc := randomUnaryFormula(rng, "x", 2)
		ps, err := regexformula.Compile(psSrc)
		if err != nil || ps.Arity() != 1 {
			continue
		}
		sAuto, err := regexformula.Compile(sSrc)
		if err != nil || sAuto.Arity() != 1 {
			continue
		}
		s, err := NewSplitter(sAuto)
		if err != nil {
			continue
		}
		comp := Compose(ps, s)
		if err := comp.Validate(); err != nil {
			t.Fatalf("instance %d: invalid composition: %v", i, err)
		}
		for _, d := range docs("ab", 4) {
			if !comp.Eval(d).Equal(ComposeBrute(ps, s, d)) {
				t.Fatalf("instance %d: composition differs on %q\nPS=%s\nS=%s", i, d, psSrc, sSrc)
			}
		}
		checked++
	}
	if checked < 40 {
		t.Fatalf("too few random instances checked: %d", checked)
	}
}

// TestRandomCanonicalLemma512 verifies the Lemma 5.12 equivalence on
// random disjoint instances: P splittable (via brute-force search over
// the canonical witness) iff P = P_S^can ∘ S.
func TestRandomCanonicalLemma512(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	checked := 0
	for i := 0; i < 100; i++ {
		pSrc := randomUnaryFormula(rng, "y", 2)
		sSrc := randomUnaryFormula(rng, "x", 2)
		p, err := regexformula.Compile(pSrc)
		if err != nil || p.Arity() != 1 {
			continue
		}
		sAuto, err := regexformula.Compile(sSrc)
		if err != nil || sAuto.Arity() != 1 {
			continue
		}
		s, err := NewSplitter(sAuto)
		if err != nil || !s.IsDisjoint() {
			continue
		}
		can := Canonical(p, s)
		if err := can.Validate(); err != nil {
			t.Fatalf("instance %d: invalid canonical: %v", i, err)
		}
		viaCanonical, err := SplitCorrect(p, can, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		splittable, _, err := Splittable(p, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if viaCanonical != splittable {
			t.Fatalf("instance %d: Lemma 5.12 violated\nP=%s\nS=%s", i, pSrc, sSrc)
		}
		// When splittable, the canonical witness must verify by brute force.
		if splittable && !splitCorrectBrute(p, can, s, "ab", 4) {
			t.Fatalf("instance %d: canonical witness fails brute force", i)
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("too few random instances checked: %d", checked)
	}
}
