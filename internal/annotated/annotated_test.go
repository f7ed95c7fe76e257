package annotated

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/regexformula"
	"repro/internal/vsa"
)

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

func splitterOf(t *testing.T, src string) *core.Splitter {
	t.Helper()
	s, err := core.NewSplitter(regexformula.MustCompile(src))
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return s
}

// getPostSplitter builds the Section 7.3 example in miniature: documents
// are ';'-separated request blocks, each block starting with 'g' (GET) or
// 'p' (POST); the annotated splitter extracts blocks and annotates each
// with its request type.
func getPostSplitter(t *testing.T) *Splitter {
	t.Helper()
	// Build by union of two single-key splitters so every acceptance
	// alternative has a well-defined key.
	gets := splitterOf(t, "(x{g[^;]*})(;[^;]*)*|[^;]*(;[^;]*)*;(x{g[^;]*})(;[^;]*)*")
	posts := splitterOf(t, "(x{p[^;]*})(;[^;]*)*|[^;]*(;[^;]*)*;(x{p[^;]*})(;[^;]*)*")
	a := vsa.NewAutomaton("x")
	ann := map[FinalRef]string{}
	for key, src := range map[string]*core.Splitter{"GET": gets, "POST": posts} {
		auto := src.Automaton()
		off := a.NumStates()
		for range auto.States {
			a.AddState()
		}
		for q, st := range auto.States {
			for _, e := range st.Edges {
				a.AddEdge(q+off, e.Ops, e.Class, e.To+off)
			}
			for _, f := range st.Finals {
				a.AddFinal(q+off, f)
				ann[FinalRef{q + off, f}] = key
			}
		}
		st := auto.States[auto.Start]
		for _, e := range st.Edges {
			a.AddEdge(a.Start, e.Ops, e.Class, e.To+off)
		}
		for _, f := range st.Finals {
			a.AddFinal(a.Start, f)
			ann[FinalRef{a.Start, f}] = key
		}
	}
	s, err := New(a, ann)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSplitAnnAndForKey(t *testing.T) {
	s := getPostSplitter(t)
	doc := "gaa;pb;ga"
	ann := s.SplitAnn(doc)
	if len(ann) != 3 {
		t.Fatalf("SplitAnn = %v, want 3 annotated splits", ann)
	}
	byKey := map[string]int{}
	for _, ks := range ann {
		byKey[ks.Key]++
		text := ks.Span.In(doc)
		if ks.Key == "GET" && !strings.HasPrefix(text, "g") {
			t.Fatalf("GET split %q does not start with g", text)
		}
		if ks.Key == "POST" && !strings.HasPrefix(text, "p") {
			t.Fatalf("POST split %q does not start with p", text)
		}
	}
	if byKey["GET"] != 2 || byKey["POST"] != 1 {
		t.Fatalf("key distribution wrong: %v", byKey)
	}
	gets, err := s.ForKey("GET")
	if err != nil {
		t.Fatal(err)
	}
	if len(gets.Split(doc)) != 2 {
		t.Fatal("ForKey(GET) must produce the two GET blocks")
	}
	if keys := s.Keys(); len(keys) != 2 || keys[0] != "GET" || keys[1] != "POST" {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestIsHighlander(t *testing.T) {
	s := getPostSplitter(t)
	hl, err := s.IsHighlander()
	if err != nil {
		t.Fatal(err)
	}
	if !hl {
		t.Fatal("the request splitter must be a highlander splitter")
	}
	// Same split annotated with two keys: not a highlander.
	dup := splitterOf(t, "x{.*}")
	a := dup.Automaton().Clone()
	ann := map[FinalRef]string{}
	for q, st := range a.States {
		for _, f := range st.Finals {
			ann[FinalRef{q, f}] = "k1"
		}
	}
	// Duplicate the automaton under a second key.
	both := vsa.NewAutomaton("x")
	ann2 := map[FinalRef]string{}
	for i, key := range []string{"k1", "k2"} {
		off := both.NumStates()
		for range a.States {
			both.AddState()
		}
		for q, st := range a.States {
			for _, e := range st.Edges {
				both.AddEdge(q+off, e.Ops, e.Class, e.To+off)
			}
			for _, f := range st.Finals {
				both.AddFinal(q+off, f)
				ann2[FinalRef{q + off, f}] = key
			}
		}
		st := a.States[a.Start]
		for _, e := range st.Edges {
			both.AddEdge(both.Start, e.Ops, e.Class, e.To+off)
		}
		for _, f := range st.Finals {
			both.AddFinal(both.Start, f)
			if i == 0 {
				ann2[FinalRef{both.Start, f}] = key
			}
		}
	}
	s2, err := New(both, ann2)
	if err != nil {
		t.Fatal(err)
	}
	hl, err = s2.IsHighlander()
	if err != nil {
		t.Fatal(err)
	}
	if hl {
		t.Fatal("two keys on the same split must not be a highlander")
	}
	// Overlapping splits: not a highlander either.
	grams := UniformKey(splitterOf(t, ".*x{..}.*"), "k")
	hl, err = grams.IsHighlander()
	if err != nil {
		t.Fatal(err)
	}
	if hl {
		t.Fatal("non-disjoint annotated splitter must not be a highlander")
	}
}

func TestComposeAgainstBrute(t *testing.T) {
	s := getPostSplitter(t)
	m := KeyMapping{
		"GET":  regexformula.MustCompile("g(y{[^;]*})"),
		"POST": regexformula.MustCompile("p(y{[^;]*})"),
	}
	comp, err := s.Compose(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, d := range docs("gp;", 5) {
		want, err := s.ComposeBrute(m, d)
		if err != nil {
			t.Fatal(err)
		}
		got := comp.Eval(d)
		aligned, err := got.Project(want.Vars)
		if err != nil {
			t.Fatal(err)
		}
		if !aligned.Equal(want) {
			t.Fatalf("annotated composition wrong on %q: %v vs %v", d, aligned, want)
		}
	}
}

// TestAnnotatedSplitCorrect exercises Theorem E.3's decision problem on
// the request-log example: P extracts the payload of every block, with
// different handling per request type (drop the leading byte for GET,
// keep the whole block for POST).
func TestAnnotatedSplitCorrect(t *testing.T) {
	s := getPostSplitter(t)
	p := regexformula.MustCompile(
		"g(y{[^;]*})(;[^;]*)*|(y{p[^;]*})(;[^;]*)*|[^;]*(;[^;]*)*;g(y{[^;]*})(;[^;]*)*|[^;]*(;[^;]*)*;(y{p[^;]*})(;[^;]*)*")
	m := KeyMapping{
		"GET":  regexformula.MustCompile("g(y{[^;]*})"),
		"POST": regexformula.MustCompile("y{p[^;]*}"),
	}
	ok, err := s.SplitCorrect(p, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("the per-key mapping must be split-correct")
	}
	// Swapping the mapping breaks it.
	bad := KeyMapping{"GET": m["POST"], "POST": m["GET"]}
	ok, err = s.SplitCorrect(p, bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("the swapped mapping must not be split-correct")
	}
}

// TestAnnotatedSplittable exercises Theorem E.7: the canonical key-spanner
// mapping witnesses splittability, and a spanner whose output crosses
// block boundaries is not splittable.
func TestAnnotatedSplittable(t *testing.T) {
	s := getPostSplitter(t)
	p := regexformula.MustCompile(
		"g(y{[^;]*})(;[^;]*)*|(y{p[^;]*})(;[^;]*)*|[^;]*(;[^;]*)*;g(y{[^;]*})(;[^;]*)*|[^;]*(;[^;]*)*;(y{p[^;]*})(;[^;]*)*")
	ok, m, err := s.Splittable(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("P must be annotated-splittable")
	}
	// The canonical mapping must verify end to end.
	for _, d := range docs("gp;", 5) {
		want := p.Eval(d)
		got, err := s.ComposeBrute(m, d)
		if err != nil {
			t.Fatal(err)
		}
		aligned, err := got.Project(want.Vars)
		if err != nil {
			t.Fatal(err)
		}
		if !aligned.Equal(want) {
			t.Fatalf("canonical mapping wrong on %q: %v vs %v", d, aligned, want)
		}
	}
	crossing := regexformula.MustCompile(".*y{;}.*")
	ok, _, err = s.Splittable(crossing, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("a separator-extractor must not be annotated-splittable")
	}
}

func TestUniformKeyAndMissingMapping(t *testing.T) {
	s := UniformKey(splitterOf(t, "x{.*}"), "all")
	if keys := s.Keys(); len(keys) != 1 || keys[0] != "all" {
		t.Fatalf("Keys = %v", keys)
	}
	if _, err := s.Compose(KeyMapping{}); err == nil {
		t.Fatal("missing key in mapping must be an error")
	}
}
