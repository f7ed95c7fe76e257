package core

import (
	"testing"

	"repro/internal/regexformula"
	"repro/internal/vsa"
)

// splitCorrectBrute decides P = P_S ∘ S by enumeration over all documents
// up to maxLen.
func splitCorrectBrute(p, ps *vsa.Automaton, s *Splitter, sigma string, maxLen int) bool {
	for _, d := range docs(sigma, maxLen) {
		got := ComposeBrute(ps, s, d)
		want := p.Eval(d)
		aligned, err := got.Project(want.Vars)
		if err != nil {
			panic(err)
		}
		if !aligned.Equal(want) {
			return false
		}
	}
	return true
}

// splitCorrectCases lists (P, P_S, S) triples over the alphabet sigma with
// ground truth verified by brute force.
var splitCorrectCases = []struct {
	name     string
	p, ps, s string
	sigma    string
	want     bool
}{
	{
		name: "whole-document splitter is always self-correct",
		p:    ".*y{a}.*", ps: ".*y{a}.*", s: "x{.*}",
		sigma: "ab", want: true,
	},
	{
		name: "Example 5.8 via PS = a(y{b})",
		p:    "a(y{b})b", ps: "a(y{b})", s: "x{ab}b|a(x{bb})",
		sigma: "ab", want: true,
	},
	{
		name: "Example 5.8 via PS' = y{b}b",
		p:    "a(y{b})b", ps: "y{b}b", s: "x{ab}b|a(x{bb})",
		sigma: "ab", want: true,
	},
	{
		name: "Example 5.8 with the wrong split-spanner",
		p:    "a(y{b})b", ps: "y{b}", s: "x{ab}b|a(x{bb})",
		sigma: "ab", want: false,
	},
	{
		name: "token extractor splits by unit tokens",
		p:    ".*y{a}.*", ps: "y{a}", s: ".*x{.}.*",
		sigma: "ab", want: true,
	},
	{
		name: "2-byte span does not split by unit tokens",
		p:    ".*y{ab}.*", ps: "y{ab}", s: ".*x{.}.*",
		sigma: "ab", want: false,
	},
	{
		name: "2-byte span splits by 2-grams",
		p:    ".*y{ab}.*", ps: "y{ab}", s: ".*x{..}.*",
		sigma: "ab", want: true,
	},
	{
		name:  "blocks starting with g are self-splittable by blocks",
		p:     "(y{g[^;]*})(;[^;]*)*|[^;]*(;[^;]*)*;(y{g[^;]*})(;[^;]*)*",
		ps:    "(y{g[^;]*})(;[^;]*)*|[^;]*(;[^;]*)*;(y{g[^;]*})(;[^;]*)*",
		s:     "(x{[^;]*})(;[^;]*)*|[^;]*(;[^;]*)*;(x{[^;]*})(;[^;]*)*",
		sigma: "g;", want: true,
	},
	{
		name:  "non-first blocks are not split-correct via whole-segment PS",
		p:     "[^;]*(;[^;]*)*;(y{[^;]*})(;[^;]*)*",
		ps:    "y{[^;]*}",
		s:     "(x{[^;]*})(;[^;]*)*|[^;]*(;[^;]*)*;(x{[^;]*})(;[^;]*)*",
		sigma: "g;", want: false,
	},
	{
		name: "empty-span extractor splits by unit tokens via empty PS",
		p:    ".*(y{}).*.|.+(y{})", ps: "y{}.|.(y{})", s: ".*x{.}.*",
		sigma: "ab", want: true,
	},
	{
		name: "Boolean spanner with whole-document splitter",
		p:    "a.*", ps: "a.*", s: "x{.*}",
		sigma: "ab", want: true,
	},
	{
		name: "Boolean spanner, wrong domain",
		p:    "a.*", ps: ".*", s: "x{a.*}",
		sigma: "ab", want: true, // S filters to documents starting with a
	},
}

func TestSplitCorrectAgainstBruteForce(t *testing.T) {
	for _, c := range splitCorrectCases {
		t.Run(c.name, func(t *testing.T) {
			p := regexformula.MustCompile(c.p)
			ps := regexformula.MustCompile(c.ps)
			s := splitterOf(t, c.s)
			brute := splitCorrectBrute(p, ps, s, c.sigma, 5)
			if brute != c.want {
				t.Fatalf("ground truth mismatch: brute force says %v", brute)
			}
			got, err := SplitCorrect(p, ps, s, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("SplitCorrect = %v, want %v", got, c.want)
			}
		})
	}
}

func TestSplitCorrectPolyAgreesWithGeneral(t *testing.T) {
	for _, c := range splitCorrectCases {
		t.Run(c.name, func(t *testing.T) {
			p, err := regexformula.MustCompile(c.p).Determinize(0)
			if err != nil {
				t.Fatal(err)
			}
			if p.Arity() == 0 {
				t.Skip("polynomial procedure does not apply to Boolean spanners")
			}
			ps, err := regexformula.MustCompile(c.ps).Determinize(0)
			if err != nil {
				t.Fatal(err)
			}
			sAuto, err := regexformula.MustCompile(c.s).Determinize(0)
			if err != nil {
				t.Fatal(err)
			}
			s := MustSplitter(sAuto)
			if !s.IsDisjoint() {
				t.Skip("polynomial procedure requires a disjoint splitter")
			}
			got, err := SplitCorrectPoly(p, ps, s)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("SplitCorrectPoly = %v, want %v", got, c.want)
			}
			general, err := SplitCorrect(p, ps, s, 0)
			if err != nil {
				t.Fatal(err)
			}
			if general != c.want {
				t.Fatalf("SplitCorrect = %v, want %v", general, c.want)
			}
		})
	}
}

func TestSplitCorrectWitness(t *testing.T) {
	p := regexformula.MustCompile(".*y{ab}.*")
	ps := regexformula.MustCompile("y{ab}")
	s := splitterOf(t, ".*x{.}.*")
	ok, witness, err := SplitCorrectWitness(p, ps, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("expected a violation")
	}
	// The witness document must actually separate P from PS ∘ S.
	if p.Eval(witness).Equal(ComposeBrute(ps, s, witness)) {
		t.Fatalf("witness %q does not separate the spanners", witness)
	}
}

func TestSplitCorrectPolyRejectsBadInputs(t *testing.T) {
	// Two open-edges on the same byte to different states: genuinely
	// nondeterministic even under the extended-alphabet reading.
	p := regexformula.MustCompile("y{.}.|y{..}")
	if p.IsDeterministic() {
		t.Fatal("test premise: y{.}.|y{..} should compile nondeterministically")
	}
	s := splitterOf(t, ".*x{.}.*")
	if _, err := SplitCorrectPoly(p, p, s); err == nil {
		t.Fatal("nondeterministic input must be rejected")
	}
	pd, _ := regexformula.MustCompile(".*y{a}.*").Determinize(0)
	sOver := splitterOf(t, ".*x{..}.*") // overlapping 2-grams
	sd, _ := sOver.auto.Determinize(0)
	if _, err := SplitCorrectPoly(pd, pd, MustSplitter(sd)); err == nil {
		t.Fatal("non-disjoint splitter must be rejected")
	}
	b := regexformula.MustCompile("a*")
	bd, _ := b.Determinize(0)
	sd2, _ := splitterOf(t, "x{.*}").auto.Determinize(0)
	if _, err := SplitCorrectPoly(bd, bd, MustSplitter(sd2)); err == nil {
		t.Fatal("Boolean spanners must be rejected by the polynomial procedure")
	}
}

// TestSelfSplittabilityHTTPExample reproduces the Section 3.1 discussion:
// identifying the request line as "the line starting with GET" is
// self-splittable by the request splitter, while identifying it as "the
// line following a blank line" is not (but is splittable via a different
// split-spanner). Lines are separated by ';' in this miniature.
func TestSelfSplittabilityHTTPExample(t *testing.T) {
	s := splitterOf(t, "(x{[^;]*})(;[^;]*)*|[^;]*(;[^;]*)*;(x{[^;]*})(;[^;]*)*")
	get := regexformula.MustCompile("(y{g[^;]*})(;[^;]*)*|[^;]*(;[^;]*)*;(y{g[^;]*})(;[^;]*)*")
	ok, err := SelfSplittable(get, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("the GET-based extractor must be self-splittable by request blocks")
	}
	after := regexformula.MustCompile("[^;]*(;[^;]*)*;(y{[^;]*})(;[^;]*)*")
	ok, err = SelfSplittable(after, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("the position-based extractor must not be self-splittable")
	}
}
