package core

import (
	"testing"

	"repro/internal/automata"
	"repro/internal/regexformula"
	"repro/internal/vsa"
)

// coverBrute checks the cover condition by enumeration over all documents
// up to the given length: every output tuple's hull must be contained in
// some split.
func coverBrute(p *vsa.Automaton, s *Splitter, sigma string, maxLen int) bool {
	for _, d := range docs(sigma, maxLen) {
		spans := s.Split(d)
		for _, t := range p.Eval(d).Tuples {
			if len(t) == 0 {
				if len(spans) == 0 {
					return false
				}
				continue
			}
			hull := t.Hull()
			covered := false
			for _, sp := range spans {
				if sp.Contains(hull) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
	}
	return true
}

var coverCases = []struct {
	p, s string
	want bool // ground truth over all documents (verified by brute force up to length 6)
}{
	{"y{a}", "x{.*}", true},
	{".*y{a}.*", "x{.*}", true},
	{".*y{a}.*", ".*x{.}.*", true},
	{".*y{ab}.*", ".*x{.}.*", false},    // 2-byte span never fits a unit split
	{".*y{ab}.*", ".*x{..}.*", true},    // fits 2-grams
	{".*y{.}z{.}.*", ".*x{.}.*", false}, // adjacent unit spans need a 2-split
	{".*y{.}z{.}.*", ".*x{..}.*", true},
	{"a*(y{b})a*", "x{a*}(ba*)*|a*b(x{a*})(ba*)*", false}, // y sits outside the a-blocks
	{"a*(y{a})a*b*", "x{a*}b*", true},                     // y inside the a-block
	{".*y{}.*", ".*x{.}.*", false},                        // on the empty document no split covers y
	{".*y{}.*.", ".*x{.}.*", true},                        // empty spans on nonempty documents are covered
	{"y{}", "x{}", true},                                  // empty split covers empty tuple
	{"y{a}|y{b}", "x{a}|x{b}", true},
	{"y{a}|y{b}", "x{a}", false}, // on document b nothing covers y
	{"ab", "x{.*}", true},        // Boolean spanner, splitter total on ab
	{"ab", "x{a+}", false},       // Boolean spanner, splitter empty on ab
}

func TestCoverConditionAgainstBruteForce(t *testing.T) {
	for _, c := range coverCases {
		p := regexformula.MustCompile(c.p)
		s := splitterOf(t, c.s)
		brute := coverBrute(p, s, "ab", 6)
		if brute != c.want {
			t.Fatalf("test case (%s, %s) has wrong ground truth: brute force says %v", c.p, c.s, brute)
		}
		got, err := CoverCondition(p, s, 0)
		if err != nil {
			t.Fatalf("(%s, %s): %v", c.p, c.s, err)
		}
		if got != c.want {
			t.Errorf("CoverCondition(%s, %s) = %v, want %v", c.p, c.s, got, c.want)
		}
	}
}

func TestCoverConditionPolyAgreesWithGeneral(t *testing.T) {
	for _, c := range coverCases {
		p, err := regexformula.MustCompile(c.p).Determinize(0)
		if err != nil {
			t.Fatal(err)
		}
		sAuto, err := regexformula.MustCompile(c.s).Determinize(0)
		if err != nil {
			t.Fatal(err)
		}
		s := MustSplitter(sAuto)
		if !s.IsDisjoint() {
			continue // the polynomial procedure requires disjoint splitters
		}
		got, err := CoverConditionPoly(p, s)
		if err != nil {
			t.Fatalf("(%s, %s): %v", c.p, c.s, err)
		}
		if got != c.want {
			t.Errorf("CoverConditionPoly(%s, %s) = %v, want %v", c.p, c.s, got, c.want)
		}
	}
}

// TestCoverPolyConstructionUnambiguity verifies the unambiguity
// obligations behind the counting-based containment: AP_n and AP_e are
// unambiguous outright, the product AP_n × AS_n is unambiguous (AS_n may
// be ambiguous only outside L(AP_n)), and so are the per-case products.
func TestCoverPolyConstructionUnambiguity(t *testing.T) {
	for _, c := range coverCases {
		p, err := regexformula.MustCompile(c.p).Determinize(0)
		if err != nil {
			t.Fatal(err)
		}
		if p.Arity() == 0 {
			continue
		}
		sAuto, err := regexformula.MustCompile(c.s).Determinize(0)
		if err != nil {
			t.Fatal(err)
		}
		s := MustSplitter(sAuto)
		if !s.IsDisjoint() {
			continue
		}
		ctx, err := newPolyCtx(p, nil, s)
		if err != nil {
			t.Fatal(err)
		}
		apn := ctx.buildAPn()
		if !apn.IsUnambiguous() {
			t.Errorf("(%s, %s): AP_n is ambiguous", c.p, c.s)
		}
		ape := ctx.buildAPe()
		if !ape.IsUnambiguous() {
			t.Errorf("(%s, %s): AP_e is ambiguous", c.p, c.s)
		}
		asn := ctx.buildASn()
		if prod := automata.Product(apn.Trim(), asn.Trim()); !prod.IsUnambiguous() {
			t.Errorf("(%s, %s): AP_n × AS_n is ambiguous", c.p, c.s)
		}
		for k := 0; k < numCases; k++ {
			b := ctx.buildSplitCase(universal(p.Vars), k)
			if prod := automata.Product(ape.Trim(), b.Trim()); !prod.IsUnambiguous() {
				t.Errorf("(%s, %s): AP_e × case %d is ambiguous", c.p, c.s, k)
			}
		}
	}
}

// TestCoverEmptyHullRegression pins the exact situation in which the
// paper's Lemma 5.6 construction loses unambiguity: an all-empty tuple at
// a boundary touched by two different disjoint splits. The cover condition
// holds and the polynomial decider must say so.
func TestCoverEmptyHullRegression(t *testing.T) {
	// P selects the empty span between the two bytes of any 2-byte
	// document; S splits the document into its two unit spans, both of
	// which touch the boundary.
	p, err := regexformula.MustCompile(".(y{}).").Determinize(0)
	if err != nil {
		t.Fatal(err)
	}
	sAuto, err := regexformula.MustCompile("x{.}.|.(x{.})").Determinize(0)
	if err != nil {
		t.Fatal(err)
	}
	s := MustSplitter(sAuto)
	if !s.IsDisjoint() {
		t.Fatal("unit splitter must be disjoint")
	}
	want, err := CoverCondition(p, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !want {
		t.Fatal("ground truth: the empty tuple is covered by both unit splits")
	}
	got, err := CoverConditionPoly(p, s)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("polynomial cover check must survive the empty-hull double-touch case")
	}
}
