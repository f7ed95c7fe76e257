package regexformula

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/span"
)

func TestParseBasics(t *testing.T) {
	cases := []struct {
		src  string
		want string // canonical String rendering
	}{
		{"abc", "abc"},
		{"a|b", "a|b"},
		{"a*", "a*"},
		{"(ab)*", "(ab)*"},
		{"x{ab}", "x{ab}"},
		{"x{a|b}c", "x{a|b}c"},
		{"a?", "a|ε"},
		{"a+", "aa*"},
	}
	for _, c := range cases {
		n, err := Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if got := n.String(); got != c.want {
			t.Errorf("Parse(%s).String() = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"(", "(a", "a)", "x{a", "[a", "[z-a]", "a**extra)", "*", "\\"}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestParseBoundsTheExpandedTree: every nested + doubles the tree, so 40
// of them in a 44-byte formula would be 2^41 nodes for Compile to walk.
// Parse refuses it with ErrFormulaTooLarge, having counted no further than
// its bound, while 9 (1 535 nodes) still parse.
func TestParseBoundsTheExpandedTree(t *testing.T) {
	src := "y{a" + strings.Repeat("+", 40) + "}"
	if _, err := Parse(src); !errors.Is(err, ErrFormulaTooLarge) {
		t.Fatalf("Parse(%q) = %v, want ErrFormulaTooLarge", src, err)
	}
	if _, err := Compile(src); !errors.Is(err, ErrFormulaTooLarge) {
		t.Fatalf("Compile(%q) = %v, want ErrFormulaTooLarge", src, err)
	}
	src = "y{a" + strings.Repeat("+", 9) + "}"
	n, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	if size := treeSize(n, maxTreeNodes); size != 1535 {
		t.Fatalf("Parse(%q) has %d nodes, want 1535", src, size)
	}
}

// TestCompileTooManyVariables: 33 captures are one more than an automaton
// supports. Compile refuses them with ErrTooManyVariables naming both
// counts, and 32 still compile.
func TestCompileTooManyVariables(t *testing.T) {
	captures := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "(v%d{a})", i)
		}
		return sb.String()
	}
	_, err := Compile(captures(33))
	if !errors.Is(err, ErrTooManyVariables) || !strings.Contains(err.Error(), "33 variables, at most 32") {
		t.Fatalf("Compile of 33 captures = %v, want ErrTooManyVariables naming 33 and 32", err)
	}
	if _, err := Compile(captures(32)); err != nil {
		t.Fatalf("Compile of 32 captures: %v", err)
	}
}

func TestParseIdentifierVsLiteral(t *testing.T) {
	// "GET " is all literal; "req{...}" is a capture named req.
	n := MustParse("GET req{.*}")
	vars := Vars(n)
	if len(vars) != 1 || vars[0] != "req" {
		t.Fatalf("Vars = %v", vars)
	}
	// An identifier not followed by '{' is literal bytes.
	n2 := MustParse("abc|x")
	if len(Vars(n2)) != 0 {
		t.Fatal("no captures expected")
	}
}

func TestCharClasses(t *testing.T) {
	n := MustParse("[a-c]")
	rel := EvalNaive(n, "b")
	if rel.Len() != 1 {
		t.Fatal("[a-c] must match b")
	}
	if EvalNaive(n, "d").Len() != 0 {
		t.Fatal("[a-c] must not match d")
	}
	neg := MustParse("[^a]")
	if EvalNaive(neg, "a").Len() != 0 || EvalNaive(neg, "z").Len() != 1 {
		t.Fatal("negated class broken")
	}
	esc := MustParse(`\d\d`)
	if EvalNaive(esc, "42").Len() != 1 || EvalNaive(esc, "4x").Len() != 0 {
		t.Fatal("\\d broken")
	}
}

// TestClassRangeEndpoints: a single-byte escape is a byte like any
// other on either side of a range, a class escape is no endpoint at all,
// and an inverted range is refused whichever side is escaped.
func TestClassRangeEndpoints(t *testing.T) {
	for _, c := range []struct {
		src     string
		in, out string // bytes the class must accept, and reject
	}{
		{`[\x00-\x1f]`, "\x00\x05\x1f", "- \x7f"},
		{`[a-\x63]`, "abc", "d-`"},
		{`[\x61-c]`, "abc", "d-`"},
		{`[\--/]`, "-./", ",0"},
		{`[\t-\r]`, "\t\n\x0b\r", " -"},
	} {
		n, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%s): %v", c.src, err)
			continue
		}
		for i := range len(c.in) {
			if EvalNaive(n, c.in[i:i+1]).Len() != 1 {
				t.Errorf("%s must accept %q", c.src, c.in[i])
			}
		}
		for i := range len(c.out) {
			if EvalNaive(n, c.out[i:i+1]).Len() != 0 {
				t.Errorf("%s must reject %q", c.src, c.out[i])
			}
		}
	}
	for _, src := range []string{`[\x1f-\x00]`, `[c-\x61]`, `[\x63-a]`} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%s) must refuse the inverted range", src)
		}
	}
	for _, src := range []string{`[\d-z]`, `[a-\w]`, `[\s-\s]`} {
		if _, err := Parse(src); !errors.Is(err, ErrClassEscapeRange) {
			t.Errorf("Parse(%s) = %v, want ErrClassEscapeRange", src, err)
		}
	}
}

func TestEscapes(t *testing.T) {
	if EvalNaive(MustParse(`\{`), "{").Len() != 1 {
		t.Fatal("escaped brace broken")
	}
	if EvalNaive(MustParse(`\x41`), "A").Len() != 1 {
		t.Fatal("hex escape broken")
	}
	if EvalNaive(MustParse(`a\|b`), "a|b").Len() != 1 {
		t.Fatal("escaped pipe broken")
	}
}

func TestEvalNaivePaperExample58(t *testing.T) {
	// Example 5.8: P = a y{b} b on document abb selects exactly [2,3⟩.
	p := MustParse("a(y{b})b")
	rel := EvalNaive(p, "abb")
	want := span.NewRelation("y")
	want.Add(span.Tuple{span.New(2, 3)})
	if !rel.Equal(want) {
		t.Fatalf("P(abb) = %v, want %v", rel, want)
	}
	if EvalNaive(p, "ab").Len() != 0 {
		t.Fatal("P must be empty on ab")
	}

	// S = x{ab}b + a x{bb} on abb selects [1,3⟩ and [2,4⟩.
	s := MustParse("x{ab}b|a(x{bb})")
	relS := EvalNaive(s, "abb")
	wantS := span.NewRelation("x")
	wantS.Add(span.Tuple{span.New(1, 3)})
	wantS.Add(span.Tuple{span.New(2, 4)})
	if !relS.Equal(wantS) {
		t.Fatalf("S(abb) = %v, want %v", relS, wantS)
	}
}

func TestEvalNaiveInvalidRefWordsDiscarded(t *testing.T) {
	// (x{a})* on "aa" would bind x twice — the ref-word is invalid, so
	// only single-iteration matches survive; none span the whole document.
	n := MustParse("(x{a})*")
	if got := EvalNaive(n, "aa"); got.Len() != 0 {
		t.Fatalf("expected no valid matches, got %v", got)
	}
	// On "a" exactly one binding.
	if got := EvalNaive(n, "a"); got.Len() != 1 {
		t.Fatalf("expected one match, got %v", got)
	}
}

func TestEvalNaiveEmptyCaptures(t *testing.T) {
	n := MustParse("x{}a")
	rel := EvalNaive(n, "a")
	want := span.NewRelation("x")
	want.Add(span.Tuple{span.New(1, 1)})
	if !rel.Equal(want) {
		t.Fatalf("x{}a on a = %v, want %v", rel, want)
	}
}

func TestVarsFirstOccurrenceOrder(t *testing.T) {
	n := MustParse("y{a}x{b}|x{a}y{b}")
	vars := Vars(n)
	if len(vars) != 2 || vars[0] != "y" || vars[1] != "x" {
		t.Fatalf("Vars = %v", vars)
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, src := range []string{"abc", "a|bc", "(a|b)*", "x{a|b}c", "x{y{a}b}"} {
		n := MustParse(src)
		n2, err := Parse(n.String())
		if err != nil {
			t.Fatalf("re-parse of %s (%s): %v", src, n.String(), err)
		}
		for _, d := range []string{"", "a", "b", "ab", "abc", "ba"} {
			if !EvalNaive(n, d).Equal(EvalNaive(n2, d)) {
				t.Fatalf("round trip of %s changed semantics on %q", src, d)
			}
		}
	}
}

func TestCompileRawStructure(t *testing.T) {
	raw := CompileRaw(MustParse("x{a}"))
	if len(raw.Vars) != 1 || raw.Vars[0] != "x" {
		t.Fatalf("Vars = %v", raw.Vars)
	}
	if raw.IsFunctional() != true {
		t.Fatal("x{a} must compile to a functional raw automaton")
	}
}
