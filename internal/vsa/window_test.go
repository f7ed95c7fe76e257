package vsa

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/reltest"
	"repro/internal/span"
)

// rawSigmaStar appends a Σ*-loop between from and to on r.
func rawSigmaStar(r *Raw, from, to int) {
	hub := r.AddState(false)
	r.AddEpsilonEdge(from, hub)
	r.AddEpsilonEdge(hub, to)
	inner := r.AddState(false)
	r.AddSymbolEdge(hub, alphabet.Any, inner)
	r.AddEpsilonEdge(inner, hub)
}

// extractorAPlus builds Σ*·x{a+}·Σ* through the Raw compiler — the
// canonical localizable shape, with the same state structure the
// regex-formula compiler produces.
func extractorAPlus() *Automaton {
	r := NewRaw("x")
	s1 := r.AddState(false)
	rawSigmaStar(r, r.Start, s1)
	o1 := r.AddState(false)
	r.AddOpEdge(s1, Open(0), o1)
	mid := r.AddState(false)
	r.AddSymbolEdge(o1, alphabet.Of('a'), mid)
	r.AddSymbolEdge(mid, alphabet.Of('a'), mid)
	c1 := r.AddState(false)
	r.AddOpEdge(mid, Close(0), c1)
	fin := r.AddState(true)
	rawSigmaStar(r, c1, fin)
	return r.Compile()
}

// extractorPrefixAnchored builds x{a}·Σ*: matches only at position 0, so
// windowed evaluation must not invent matches elsewhere.
func extractorPrefixAnchored() *Automaton {
	r := NewRaw("x")
	o1 := r.AddState(false)
	r.AddOpEdge(r.Start, Open(0), o1)
	mid := r.AddState(false)
	r.AddSymbolEdge(o1, alphabet.Of('a'), mid)
	c1 := r.AddState(false)
	r.AddOpEdge(mid, Close(0), c1)
	fin := r.AddState(true)
	rawSigmaStar(r, c1, fin)
	return r.Compile()
}

// extractorSuffixAnchored builds Σ*·x{a+} anchored at the document end:
// the close happens in the final operation set, exercising the
// finals-at-end seeding of the backward pass.
func extractorSuffixAnchored() *Automaton {
	r := NewRaw("x")
	s1 := r.AddState(false)
	rawSigmaStar(r, r.Start, s1)
	o1 := r.AddState(false)
	r.AddOpEdge(s1, Open(0), o1)
	mid := r.AddState(false)
	r.AddSymbolEdge(o1, alphabet.Of('a'), mid)
	r.AddSymbolEdge(mid, alphabet.Of('a'), mid)
	c1 := r.AddState(true)
	r.AddOpEdge(mid, Close(0), c1)
	return r.Compile()
}

// extractorZeroWidth builds Σ*·x{}·b·Σ*: an empty span opened and closed
// at the same boundary, right before a 'b'.
func extractorZeroWidth() *Automaton {
	r := NewRaw("x")
	s1 := r.AddState(false)
	rawSigmaStar(r, r.Start, s1)
	o1 := r.AddState(false)
	r.AddOpEdge(s1, Open(0), o1)
	c1 := r.AddState(false)
	r.AddOpEdge(o1, Close(0), c1)
	mid := r.AddState(false)
	r.AddSymbolEdge(c1, alphabet.Of('b'), mid)
	fin := r.AddState(true)
	rawSigmaStar(r, mid, fin)
	return r.Compile()
}

// TestLocalizerActivates pins down that the common extractor shapes
// actually take the windowed path — a silent fallback would pass every
// equivalence test while abandoning the optimization.
func TestLocalizerActivates(t *testing.T) {
	for _, c := range []struct {
		name string
		a    *Automaton
	}{
		{"sigma-star-core-sigma-star", extractorAPlus()},
		{"prefix-anchored", extractorPrefixAnchored()},
		{"suffix-anchored", extractorSuffixAnchored()},
		{"zero-width", extractorZeroWidth()},
	} {
		if loc := c.a.localizer(); !loc.ok {
			t.Errorf("%s: localizer disabled: %s", c.name, loc.reason)
		}
	}
	nullary := NewAutomaton()
	nullary.AddEdge(0, 0, alphabet.Any, 0)
	nullary.AddFinal(0, 0)
	if loc := nullary.localizer(); loc.ok {
		t.Error("nullary automaton must fall back to whole-document evaluation")
	}
}

// TestWindowedEvalMatchesReference is the table-driven equivalence test
// for the match-window localizer: matches at the document start and end,
// zero-width spans, adjacent matches whose windows merge, matches
// straddling checkpoint boundaries, and documents with no matches at all
// must agree byte-for-byte with the reference simulation.
func TestWindowedEvalMatchesReference(t *testing.T) {
	long := strings.Repeat(".", 3*checkpointStride)
	cases := []struct {
		name string
		a    *Automaton
		docs []string
	}{
		{"a-plus", extractorAPlus(), []string{
			"",
			"a",
			"aaa",
			"xxaxx",
			"axxxa",                                 // matches at both ends
			"aa.aa.aa",                              // adjacent matches, windows merge
			long + "aaa" + long,                     // isolated window mid-document
			long + "a" + long + "a" + long + "a",    // several isolated windows
			"a" + long,                              // match at position 0
			long + "a",                              // match at the last byte
			strings.Repeat("a", 2*checkpointStride), // one huge match region
			long,                                    // no match at all
		}},
		{"prefix-anchored", extractorPrefixAnchored(), []string{
			"", "a", "ab", "ba", "xa", "a" + long, long,
		}},
		{"suffix-anchored", extractorSuffixAnchored(), []string{
			"", "a", "ba", "ab", long + "aa", "aa" + long, long,
		}},
		{"zero-width", extractorZeroWidth(), []string{
			"", "b", "ab", "bb", long + "b", "b" + long, long,
		}},
	}
	for _, c := range cases {
		if err := c.a.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, doc := range c.docs {
			got, want := c.a.Eval(doc), c.a.EvalReference(doc)
			if !got.Equal(want) {
				t.Errorf("%s: Eval(%q):\nwindowed: %v\nreference: %v", c.name, doc, got, want)
			}
		}
	}
}

// TestWindowedEvalNonLocalizableFallsBack: a hand-built automaton
// without consistent statuses (non-functional) evaluates as its
// functionalization (Section 4.2): only valid ref-words yield tuples, so
// a run that leaves x unopened (through b) or closes it twice yields
// none. The expected relations are written out by hand rather than read
// off EvalReference, which simulates the broken automaton as it is.
func TestWindowedEvalNonLocalizableFallsBack(t *testing.T) {
	a := NewAutomaton("x")
	mid := a.AddState()
	// Two paths assign conflicting statuses to mid: one opens x, one
	// does not.
	a.AddEdge(0, Open(0), alphabet.Of('a'), mid)
	a.AddEdge(0, 0, alphabet.Of('b'), mid)
	a.AddEdge(mid, Close(0), alphabet.Of('c'), mid)
	a.AddFinal(mid, 0)
	if g := a.localizer().group; g.autos[0] == a {
		t.Fatal("the non-functional automaton's scan group holds it, not its functionalization")
	}
	f := a.ToRaw().Compile()
	// In a Multi, a's functionalization shares a fused group.
	m := NewMulti(a, extractorAPlus())
	if m.Prepare(); len(m.groups) != 1 || m.groups[0].autos[0] != a.localizer().group.autos[0] {
		t.Fatal("the functionalization does not share the Multi's one fused group")
	}
	for doc, want := range map[string][]span.Span{
		"":    nil,
		"ac":  {{Start: 1, End: 2}},
		"bc":  nil,
		"acc": nil,
		"b":   nil,
	} {
		rel := span.NewRelation("x")
		for _, s := range want {
			rel.Add(span.Tuple{s})
		}
		if got, fused := a.Eval(doc), m.Eval(doc)[0]; !got.Equal(rel) || !fused.Equal(rel) || !f.Eval(doc).Equal(rel) {
			t.Errorf("Eval(%q) = %v, fused %v, functionalization %v, want %v", doc, got, fused, f.Eval(doc), rel)
		}
		// The Boolean path answers the same §4.2 question.
		if got := a.EvalBool(doc); got != (len(want) > 0) {
			t.Errorf("EvalBool(%q) = %v, want %v", doc, got, len(want) > 0)
		}
	}
}

// TestNonFunctionalEvalCounts: a hand-built non-functional automaton
// evaluates as its functionalization, which its own group holds, and a
// session with a record counts that evaluation like any other on a
// document of at least MetricsMinDocBytes.
func TestNonFunctionalEvalCounts(t *testing.T) {
	a := NewAutomaton("x")
	mid := a.AddState()
	a.AddEdge(0, Open(0), alphabet.Of('a'), mid)
	a.AddEdge(0, 0, alphabet.Of('b'), mid)
	a.AddEdge(mid, Close(0), alphabet.Of('c'), mid)
	a.AddFinal(mid, 0)
	doc := "a" + strings.Repeat("c", MetricsMinDocBytes)
	var rec Record
	s := NewMulti(a).NewSession(&rec)
	defer s.Close()
	if got, want := s.Eval(doc)[0], a.ToRaw().Compile().Eval(doc); !got.Equal(want) {
		t.Fatalf("Eval = %v, functionalization %v", got, want)
	}
	if rec[Evals] != 1 || rec[DocBytes] != uint64(len(doc)) {
		t.Fatalf("record counted %d evaluations over %d bytes, want 1 over %d", rec[Evals], rec[DocBytes], len(doc))
	}
}

// TestWindowedEvalConcurrent hammers one shared automaton from many
// goroutines so the race detector sees the scan and reverse DFA caches
// being built and read concurrently.
func TestWindowedEvalConcurrent(t *testing.T) {
	a := extractorAPlus()
	long := strings.Repeat(".", 2*checkpointStride)
	docs := []string{"", "a", long + "aaa" + long, "aa.aa", long}
	want := make([]int, len(docs))
	for i, d := range docs {
		want[i] = a.EvalReference(d).Len()
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 40; i++ {
				d := (g + i) % len(docs)
				if got := a.Eval(docs[d]).Len(); got != want[d] {
					t.Errorf("Eval(%q) = %d tuples, want %d", docs[d], got, want[d])
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// TestColdDFAsConcurrentFill holds the lazy DFAs to their snapshot
// contract under load: 8 goroutines fill one cold automaton's DFAs — the
// forward scan's, which EvalBool walks too, and the backward narrowing
// one — and a cold Multi's fused scan on disjoint documents, so passes
// keep meeting states interned after their snapshot. Every answer is
// checked against EvalReference.
func TestColdDFAsConcurrentFill(t *testing.T) {
	a := extractorAPlus()
	members := []*Automaton{a, buildUnanchoredAB(t), extractorZeroWidth()}
	m := NewMulti(members...)
	if loc := a.localizer(); loc.group.dfa.Len() > 2 || loc.rev.dfa.Len() > 1 {
		t.Fatal("the automaton's DFAs are warm before the first evaluation")
	}
	pieces := []string{"a", "b", "ab", "aab", ".", strings.Repeat(".", 3*checkpointStride)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 25; i++ {
				var b strings.Builder
				b.WriteString(strings.Repeat("b", g)) // disjoint across goroutines
				for k := rng.Intn(12); k > 0; k-- {
					b.WriteString(pieces[rng.Intn(len(pieces))])
				}
				doc := b.String()
				want := a.EvalReference(doc)
				if got := a.Eval(doc); !got.Equal(want) {
					t.Errorf("Eval(%q) = %v, want %v", doc, got, want)
					return
				}
				if got := a.EvalBool(doc); got != (want.Len() > 0) {
					t.Errorf("EvalBool(%q) = %v, want %v", doc, got, want.Len() > 0)
					return
				}
				for q, got := range m.Eval(doc) {
					if want := members[q].EvalReference(doc); !got.Equal(want) {
						t.Errorf("Multi member %d on %q = %v, want %v", q, doc, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzEvalWindowVsReference fuzzes the windowed evaluator against the
// retained reference simulation on random functional automata (the
// generator of dfa_test.go) and fuzz-provided documents: window
// straddling, zero-width spans and byte classes outside the automaton's
// alphabet all fall out of the corpus.
func FuzzEvalWindowVsReference(f *testing.F) {
	f.Add(int64(1), "abab")
	f.Add(int64(2), "")
	f.Add(int64(3), strings.Repeat("c", 2*checkpointStride)+"ab")
	f.Add(int64(7), "aa.bb.aa")
	f.Fuzz(func(t *testing.T, seed int64, doc string) {
		if len(doc) > 1<<12 {
			doc = doc[:1<<12]
		}
		rng := rand.New(rand.NewSource(seed))
		a := randomAutomaton(rng)
		if err := a.Validate(); err != nil {
			t.Skip()
		}
		got, want := a.Eval(doc), a.EvalReference(doc)
		if !got.Equal(want) {
			t.Fatalf("windowed Eval disagrees on %q:\nwindowed: %v\nreference: %v\n%s", doc, got, want, a)
		}
		// One run per tuple: before any Dedupe, EvalAppend has appended
		// each tuple once.
		rel := span.NewRelation(a.Vars...)
		a.EvalAppend(doc, span.Span{Start: 1, End: len(doc) + 1}, rel, nil)
		if rel.Len() != want.Len() {
			t.Fatalf("EvalAppend appended %d tuples on %q, EvalReference finds %d\n%s", rel.Len(), doc, want.Len(), a)
		}
		// The same automaton as a Multi of one: the other entry point to
		// the same scan.
		if d := reltest.ThreeWayDiff("multi of one", NewMulti(a).Eval(doc)[0], "eval", got, want); d != "" {
			t.Fatalf("Multi of one disagrees on %q:\n%s%s", doc, d, a)
		}
	})
}
