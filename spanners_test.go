package spanners

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/library"
	"repro/internal/regexformula"
)

func TestFacadeQuickstart(t *testing.T) {
	p := MustCompile(`(.*[ .!?\n])?bad (y{[a-z]+})(([^a-z].*)?|)`)
	s := WrapSplitter(library.Sentences())
	ok, err := SelfSplittable(p, s)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("sentiment extractor must be self-splittable by sentences")
	}
	doc := "good tea.really bad coffee.bad service!fine."
	direct := p.Eval(doc)
	par := ParallelEval(p, s, doc, 4)
	if !par.Equal(direct) {
		t.Fatalf("parallel evaluation differs: %v vs %v", par, direct)
	}
	if direct.Len() != 2 {
		t.Fatalf("expected 2 extractions, got %v", direct)
	}
}

func TestFacadeSplitCorrectAndWitness(t *testing.T) {
	p := MustCompile(".*y{ab}.*")
	ps := MustCompile("y{ab}")
	tokens := MustCompileSplitter(".*x{.}.*")
	ok, err := SplitCorrect(p, ps, tokens)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("2-byte spans must not split by unit tokens")
	}
	ok, witness, err := SplitCorrectWitness(p, ps, tokens)
	if err != nil || ok {
		t.Fatalf("expected failure with witness, got %v %v", ok, err)
	}
	if len(witness) == 0 {
		t.Fatal("expected a nonempty witness document")
	}
	grams := MustCompileSplitter(".*x{..}.*")
	ok, err = SplitCorrect(p, ps, grams)
	if err != nil || !ok {
		t.Fatalf("2-byte spans must split by 2-grams: %v %v", ok, err)
	}
}

func TestFacadeSplittable(t *testing.T) {
	p := MustCompile(".*y{a}.*")
	s := MustCompileSplitter(".*x{.}.*")
	ok, witness, err := Splittable(p, s)
	if err != nil || !ok {
		t.Fatalf("Splittable: %v %v", ok, err)
	}
	okCorrect, err := SplitCorrect(p, witness, s)
	if err != nil || !okCorrect {
		t.Fatalf("witness must be split-correct: %v %v", okCorrect, err)
	}
	cov, err := CoverCondition(p, s)
	if err != nil || !cov {
		t.Fatalf("cover condition must hold: %v %v", cov, err)
	}
}

func TestFacadeAlgebraAndContainment(t *testing.T) {
	a := MustCompile("x{a}.*")
	b := MustCompile(".*x{a}.*")
	ok, err := b.Contains(a)
	if err != nil || !ok {
		t.Fatalf("b must contain a: %v %v", ok, err)
	}
	u, err := a.Union(MustCompile(".*x{a}"))
	if err != nil {
		t.Fatal(err)
	}
	if got := u.Eval("aba"); got.Len() != 2 {
		t.Fatalf("union eval: %v", got)
	}
	j, err := a.Join(MustCompile("x{.}.*"))
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Eval("ab"); got.Len() != 1 {
		t.Fatalf("join eval: %v", got)
	}
	m, err := MustCompile(".*x{.}.*").Minus(MustCompile(".*x{a}.*"))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Eval("ab"); got.Len() != 1 || got.Tuples[0][0].In("ab") != "b" {
		t.Fatalf("minus eval: %v", got)
	}
	d, err := b.Determinize()
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsDeterministic() {
		t.Fatal("Determinize must produce a deterministic spanner")
	}
	eq, err := b.EquivalentTo(d)
	if err != nil || !eq {
		t.Fatalf("determinization must preserve the spanner: %v %v", eq, err)
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := Compile("(unclosed"); err == nil {
		t.Fatal("bad formula must fail")
	}
	if _, err := CompileSplitter("x{a}y{b}"); err == nil {
		t.Fatal("binary splitter must fail")
	}
	if _, err := SplitterFrom(MustCompile("abc")); err == nil {
		t.Fatal("Boolean splitter must fail")
	}
}

// TestFacadeTooManyVariables: a formula with one variable more than an
// automaton supports is a typed error from Compile, not a panic.
func TestFacadeTooManyVariables(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 33; i++ {
		fmt.Fprintf(&sb, "(v%d{a})", i)
	}
	if _, err := Compile(sb.String()); !errors.Is(err, regexformula.ErrTooManyVariables) {
		t.Fatalf("Compile of 33 captures = %v, want regexformula.ErrTooManyVariables", err)
	}
}
