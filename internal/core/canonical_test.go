package core

import (
	"strings"
	"testing"

	"repro/internal/regexformula"
	"repro/internal/span"
	"repro/internal/vsa"
)

// canonicalBrute computes P_S^can(d) by its definition, enumerating
// context documents d' = u·d·v with |u|,|v| ≤ ctxLen over sigma.
func canonicalBrute(p *vsa.Automaton, s *Splitter, d, sigma string, ctxLen int) *span.Relation {
	out := span.NewRelation(p.Vars...)
	for _, u := range docs(sigma, ctxLen) {
		for _, v := range docs(sigma, ctxLen) {
			dPrime := u + d + v
			want := span.New(len(u)+1, len(u)+len(d)+1)
			found := false
			for _, sp := range s.Split(dPrime) {
				if sp == want {
					found = true
					break
				}
			}
			if !found {
				continue
			}
			rel := p.Eval(dPrime)
			for _, t := range rel.Tuples {
				inside := true
				for _, spn := range t {
					if !want.Contains(spn) {
						inside = false
						break
					}
				}
				if inside {
					out.Add(t.Unshift(want))
				}
			}
		}
	}
	out.Dedupe()
	return out
}

// TestCanonicalExample510 pins the exact computation of Example 5.10: for
// P = a(y{b})b and S = x{ab}b + a(x{bb}), the canonical split-spanner
// satisfies P_S^can(ab) = {[2,3⟩} and P_S^can(bb) = {[1,2⟩}, and
// (P_S^can ∘ S)(abb) = {[1,2⟩, [2,3⟩, [3,4⟩} ⊋ P(abb).
func TestCanonicalExample510(t *testing.T) {
	p := regexformula.MustCompile("a(y{b})b")
	s := splitterOf(t, "x{ab}b|a(x{bb})")
	can := Canonical(p, s)
	if err := can.Validate(); err != nil {
		t.Fatal(err)
	}
	relAB := can.Eval("ab")
	wantAB := span.NewRelation("y")
	wantAB.Add(span.Tuple{span.New(2, 3)})
	if !relAB.Equal(wantAB) {
		t.Fatalf("P_S^can(ab) = %v, want %v", relAB, wantAB)
	}
	relBB := can.Eval("bb")
	wantBB := span.NewRelation("y")
	wantBB.Add(span.Tuple{span.New(1, 2)})
	if !relBB.Equal(wantBB) {
		t.Fatalf("P_S^can(bb) = %v, want %v", relBB, wantBB)
	}
	// Note a discrepancy with the paper here: Example 5.10 displays
	// (P_S^can ∘ S)(abb) = {[1,2⟩,[2,3⟩,[3,4⟩}, obtained by shifting the
	// union P_S^can(ab) ∪ P_S^can(bb) by both splits. Under the paper's own
	// Definition of ∘ (Section 3), each segment's relation is shifted only
	// by its own split: {[2,3⟩ ≫ [1,3⟩} ∪ {[1,2⟩ ≫ [2,4⟩} = {[2,3⟩}. The
	// example's broader point — P_S^can ∘ S ⊈ P for non-disjoint splitters
	// — is demonstrated with Example 5.13's spanners in
	// TestCanonicalNonDisjointOvergeneration below.
	composed := Compose(can, s).Eval("abb")
	want := span.NewRelation("y")
	want.Add(span.Tuple{span.New(2, 3)})
	if !composed.Equal(want) {
		t.Fatalf("(P_S^can ∘ S)(abb) = %v, want %v", composed, want)
	}
}

// TestCanonicalNonDisjointOvergeneration demonstrates the phenomenon that
// Example 5.10 is after: for a non-disjoint splitter the canonical
// split-spanner can mix contexts, so P_S^can ∘ S may strictly exceed P.
// With Example 5.13's P = ab(y{b}) + c(y{b})b and S = x{Σ*} + Σ*x{bb}Σ*,
// the segment "bb" arises both inside abb and inside cbb with different
// covered tuples, and the mixed-in tuple [2,3⟩ appears on abb although
// P(abb) = {[3,4⟩}.
func TestCanonicalNonDisjointOvergeneration(t *testing.T) {
	p := regexformula.MustCompile("ab(y{b})|c(y{b})b")
	s := splitterOf(t, "x{.*}|.*(x{bb}).*")
	can := Canonical(p, s)
	composed := Compose(can, s)
	pOnABB := p.Eval("abb")
	canOnABB := composed.Eval("abb")
	extra := span.Tuple{span.New(2, 3)}
	if pOnABB.Has(extra) {
		t.Fatal("test premise: P(abb) must not contain [2,3⟩")
	}
	if !canOnABB.Has(extra) {
		t.Fatalf("(P_S^can ∘ S)(abb) = %v should overgenerate [2,3⟩", canOnABB)
	}
	ok, err := vsa.Contained(composed, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("P_S^can ∘ S ⊆ P must fail for this non-disjoint splitter")
	}
}

func TestCanonicalAgainstBruteForce(t *testing.T) {
	cases := []struct{ p, s, sigma string }{
		{"a(y{b})b", "x{ab}b|a(x{bb})", "ab"},
		{".*y{a}.*", ".*x{.}.*", "ab"},
		{".*y{ab}.*", ".*x{..}.*", "ab"},
		{".*y{a}.*", "x{.*}", "ab"},
		{"a*(y{a})a*b*", "x{a*}b*", "ab"},
	}
	for _, c := range cases {
		p := regexformula.MustCompile(c.p)
		s := splitterOf(t, c.s)
		can := Canonical(p, s)
		if err := can.Validate(); err != nil {
			t.Fatalf("(%s,%s): %v", c.p, c.s, err)
		}
		for _, d := range docs(c.sigma, 3) {
			brute := canonicalBrute(p, s, d, c.sigma, 2)
			got := can.Eval(d)
			// The brute force enumerates bounded contexts only, so it can
			// miss tuples that require longer ones; it must however be
			// contained in the construction, and for these simple spanners
			// contexts of length ≤ 2 are exhaustive, so we check equality.
			if !got.Equal(brute) {
				t.Fatalf("(%s,%s) on %q: canonical %v, brute %v", c.p, c.s, d, got, brute)
			}
		}
	}
}

// TestCanonicalLemma514 checks P = P_S ∘ S ⇒ P_S^can ⊆ P_S for disjoint
// splitters on the split-correct instances of the shared test table.
func TestCanonicalLemma514(t *testing.T) {
	for _, c := range splitCorrectCases {
		if !c.want {
			continue
		}
		p := regexformula.MustCompile(c.p)
		if p.Arity() == 0 {
			continue
		}
		ps := regexformula.MustCompile(c.ps)
		s := splitterOf(t, c.s)
		if !s.IsDisjoint() {
			continue
		}
		can := Canonical(p, s)
		ok, err := vsa.Contained(can, ps, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !ok {
			t.Errorf("%s: P_S^can ⊄ P_S, contradicting Lemma 5.14", c.name)
		}
	}
}

var splittabilityCases = []struct {
	name  string
	p, s  string
	sigma string
	want  bool
}{
	{
		name: "token extractor splittable by unit tokens",
		p:    ".*y{a}.*", s: ".*x{.}.*", sigma: "ab", want: true,
	},
	{
		name: "2-byte span not splittable by unit tokens (cover fails)",
		p:    ".*y{ab}.*", s: ".*x{.}.*", sigma: "ab", want: false,
	},
	{
		name:  "GET blocks: self-splittable, hence splittable",
		p:     "(y{g[^;]*})(;[^;]*)*|[^;]*(;[^;]*)*;(y{g[^;]*})(;[^;]*)*",
		s:     "(x{[^;]*})(;[^;]*)*|[^;]*(;[^;]*)*;(x{[^;]*})(;[^;]*)*",
		sigma: "g;", want: true,
	},
	{
		name:  "non-first blocks: covered but not splittable (condition 2 fails)",
		p:     "[^;]*(;[^;]*)*;(y{[^;]*})(;[^;]*)*",
		s:     "(x{[^;]*})(;[^;]*)*|[^;]*(;[^;]*)*;(x{[^;]*})(;[^;]*)*",
		sigma: "g;", want: false,
	},
	{
		name:  "first line after block start: splittable but not self-splittable",
		p:     ";(y{[^;]*})(;[^;]*)*",
		s:     ";(x{[^;]*})(;[^;]*)*",
		sigma: "g;", want: true,
	},
}

func TestSplittable(t *testing.T) {
	for _, c := range splittabilityCases {
		t.Run(c.name, func(t *testing.T) {
			p := regexformula.MustCompile(c.p)
			s := splitterOf(t, c.s)
			got, witness, err := Splittable(p, s, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("Splittable = %v, want %v", got, c.want)
			}
			if got {
				// The returned canonical split-spanner must actually work.
				if !splitCorrectBrute(p, witness, s, c.sigma, 5) {
					t.Fatal("returned split-spanner fails brute-force verification")
				}
			}
		})
	}
}

func TestSplittableRejectsNonDisjoint(t *testing.T) {
	p := regexformula.MustCompile("a(y{b})b")
	s := splitterOf(t, "x{ab}b|a(x{bb})")
	if _, _, err := Splittable(p, s, 0); err == nil || !strings.Contains(err.Error(), "disjoint") {
		t.Fatalf("expected a disjointness error, got %v", err)
	}
}

// TestExample58SplittableViaBothWitnesses pins Example 5.8: with the
// non-disjoint splitter S both P_S = a(y{b}) and P_S' = y{b}b witness
// splittability even though they are different spanners.
func TestExample58SplittableViaBothWitnesses(t *testing.T) {
	p := regexformula.MustCompile("a(y{b})b")
	s := splitterOf(t, "x{ab}b|a(x{bb})")
	for _, psSrc := range []string{"a(y{b})", "y{b}b"} {
		ps := regexformula.MustCompile(psSrc)
		ok, err := SplitCorrect(p, ps, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("P_S = %s must witness splittability", psSrc)
		}
	}
	// The two witnesses are different spanners.
	eq, err := vsa.Equivalent(
		regexformula.MustCompile("a(y{b})"),
		regexformula.MustCompile("y{b}b"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("the two split-spanners of Example 5.8 must differ")
	}
}

// TestExample513NonDisjointSelfSplittable pins Example 5.13: P is
// self-splittable by the non-disjoint splitter S even though the
// splittability condition's second requirement fails.
func TestExample513NonDisjointSelfSplittable(t *testing.T) {
	p := regexformula.MustCompile("ab(y{b})|c(y{b})b")
	s := splitterOf(t, "x{.*}|.*(x{bb}).*")
	ok, err := SelfSplittable(p, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Example 5.13's P must be self-splittable by S")
	}
	// Cross-check by brute force over the three-letter alphabet.
	if !splitCorrectBrute(p, p, s, "abc", 5) {
		t.Fatal("brute force disagrees with Example 5.13")
	}
}

// TestCanonicalDeterministic pins that one input builds one automaton:
// Canonical numbers its states in the order it first meets them. This
// pair has several pre-closure pairs that open the split, so numbering
// them in map order printed different automata from run to run.
func TestCanonicalDeterministic(t *testing.T) {
	p := regexformula.MustCompile(`.*y{ab}.*|.*y{ba}.*`)
	s := splitterOf(t, `(.*[.])?x{[^.]*}([.].*)?`)
	want := Canonical(p, s).String()
	for i := 0; i < 50; i++ {
		if got := Canonical(p, s).String(); got != want {
			t.Fatalf("run %d built\n%s\nbut run 0 built\n%s", i, got, want)
		}
	}
}
