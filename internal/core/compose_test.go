package core

import (
	"testing"

	"repro/internal/regexformula"
)

// docs enumerates all documents over the bytes of sigma up to maxLen.
func docs(sigma string, maxLen int) []string {
	out := []string{""}
	frontier := []string{""}
	for l := 0; l < maxLen; l++ {
		var next []string
		for _, d := range frontier {
			for i := 0; i < len(sigma); i++ {
				next = append(next, d+sigma[i:i+1])
			}
		}
		out = append(out, next...)
		frontier = next
	}
	return out
}

func splitterOf(t *testing.T, src string) *Splitter {
	t.Helper()
	s, err := NewSplitter(regexformula.MustCompile(src))
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return s
}

func TestNewSplitterRejectsWrongArity(t *testing.T) {
	if _, err := NewSplitter(regexformula.MustCompile("ab")); err == nil {
		t.Fatal("0-ary automaton must be rejected")
	}
	if _, err := NewSplitter(regexformula.MustCompile("x{a}y{b}")); err == nil {
		t.Fatal("binary automaton must be rejected")
	}
}

func TestSplitBasics(t *testing.T) {
	// Tokenizer: maximal runs of a's separated by single b's is hard to
	// write; instead split every single byte (the S1 of Observation 6.4).
	s := splitterOf(t, ".*x{.}.*")
	spans := s.Split("abc")
	if len(spans) != 3 {
		t.Fatalf("expected 3 unit spans, got %v", spans)
	}
	segs := s.Segments("abc")
	if segs[0].Text != "a" || segs[2].Text != "c" {
		t.Fatalf("segments wrong: %v", segs)
	}
}

var composeCases = []struct {
	ps, s string
}{
	{"y{a}", "x{.*}"},                      // trivial splitter: whole document
	{"y{b}", ".*x{.}.*"},                   // unit splitter
	{".*y{a}.*", "x{a*}b|(x{a*})"},         // prefix block splitter
	{"y{.*}", "x{ab}b|a(x{bb})"},           // Example 5.8's overlapping splitter
	{"y{b}|y{a}b", ".*x{..}.*"},            // 2-gram splitter
	{"y{a}z{b}", "x{.*}"},                  // binary split-spanner
	{"y{}", ".*x{.}.*"},                    // empty spans inside segments
	{"a", "x{.*}"},                         // Boolean split-spanner
	{"y{(a|b)*}", "x{a.}|.(x{b.})|..x{.}"}, // assorted segments
}

func TestComposeMatchesBruteForce(t *testing.T) {
	for _, c := range composeCases {
		ps := regexformula.MustCompile(c.ps)
		s := splitterOf(t, c.s)
		comp := Compose(ps, s)
		if err := comp.Validate(); err != nil {
			t.Fatalf("Compose(%s, %s) invalid: %v", c.ps, c.s, err)
		}
		for _, d := range docs("ab", 5) {
			want := ComposeBrute(ps, s, d)
			got := comp.Eval(d)
			if !got.Equal(want) {
				t.Fatalf("Compose(%s,%s) on %q: got %v, want %v", c.ps, c.s, d, got, want)
			}
		}
	}
}

func TestComposeHTTPLikeExample(t *testing.T) {
	// The Section 3.1 example in miniature: documents are request blocks
	// separated by blank lines (here: ';'), the splitter extracts the
	// blocks, and the split-spanner extracts a GET-prefixed first token.
	s := splitterOf(t, "x{[^;]*}(;[^;]*)*|[^;]*(;[^;]*)*;x{[^;]*}(;[^;]*)*")
	ps := regexformula.MustCompile("GET (y{[^;]*})")
	comp := Compose(ps, s)
	doc := "GET a;POST b;GET c"
	rel := comp.Eval(doc)
	if rel.Len() != 2 {
		t.Fatalf("expected 2 GET extractions, got %v", rel)
	}
	for _, tp := range rel.Tuples {
		got := tp[0].In(doc)
		if got != "a" && got != "c" {
			t.Fatalf("unexpected extraction %q", got)
		}
	}
}

func TestIsDisjoint(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"x{.*}", true},            // whole document: one span
		{".*x{.}.*", true},         // unit tokens: pairwise disjoint
		{".*x{..}.*", false},       // 2-grams overlap
		{"x{ab}b|a(x{bb})", false}, // Example 5.8's splitter
		{"x{a*}b.*", true},         // unique prefix block
		{"x{a}|x{aa}", true},       // whole-document matches: never two spans on one doc
		{"x{a}.*|x{aa}.*", false},  // on aa: [1,2⟩ overlaps [1,3⟩
		{"x{a}|a(x{a})", true},     // on aa: [1,2⟩ and [2,3⟩ touch but are disjoint
		{"x{}a*", true},            // single empty span
		{"x{}a*|a(x{})a*", true},   // empty spans at different boundaries
		{"x{}a*|x{aa}a*", false},   // empty span inside a nonempty span
		{"x{}a*|x{a}a*", false},    // [1,1⟩ at left endpoint of [1,2⟩: overlaps
		{"x{a}a*|a(x{})a*", true},  // [1,2⟩ and [2,2⟩: disjoint per the definition
	}
	for _, c := range cases {
		s := splitterOf(t, c.src)
		if got := s.IsDisjoint(); got != c.want {
			t.Errorf("IsDisjoint(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

// TestIsDisjointAgainstBruteForce cross-validates the product-based check
// with direct evaluation on all short documents.
func TestIsDisjointAgainstBruteForce(t *testing.T) {
	srcs := []string{
		"x{.*}", ".*x{.}.*", ".*x{..}.*", "x{ab}b|a(x{bb})", "x{a*}b.*",
		"x{a}|x{aa}", "x{a}.*|x{aa}.*", "x{a}|a(x{a})", "x{}a*", "x{}a*|a(x{})a*",
		"x{}a*|x{aa}a*", "x{}a*|x{a}a*", "x{a}a*|a(x{})a*",
		"x{a+}b*", "x{.}.*|.(x{.}).*",
	}
	for _, src := range srcs {
		s := splitterOf(t, src)
		want := true
	outer:
		for _, d := range docs("ab", 6) {
			spans := s.Split(d)
			for i := 0; i < len(spans); i++ {
				for j := i + 1; j < len(spans); j++ {
					if spans[i].Overlaps(spans[j]) {
						want = false
						break outer
					}
				}
			}
		}
		if got := s.IsDisjoint(); got != want {
			t.Errorf("IsDisjoint(%s) = %v, brute force = %v", src, got, want)
		}
	}
}
