package vsa

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/alphabet"
)

// randomAutomaton builds a small random functional unary automaton by
// composing hand-built blocks: Σ*-ish prefix states, an extraction block,
// and a suffix. It stays within the constructors, so every instance is
// valid by construction.
func randomAutomaton(rng *rand.Rand) *Automaton {
	a := NewAutomaton("x")
	classes := []alphabet.Class{
		alphabet.Of('a'), alphabet.Of('b'), alphabet.Of('a', 'b'),
		alphabet.Range('a', 'c'), alphabet.Any,
	}
	cls := func() alphabet.Class { return classes[rng.Intn(len(classes))] }
	// Prefix loop states.
	pre := 0
	for i := rng.Intn(3); i > 0; i-- {
		next := a.AddState()
		a.AddEdge(pre, 0, cls(), next)
		a.AddEdge(next, 0, cls(), next)
		pre = next
	}
	// Extraction: open on one byte, optionally extend, close.
	mid := a.AddState()
	a.AddEdge(pre, Open(0), cls(), mid)
	for i := rng.Intn(2); i > 0; i-- {
		a.AddEdge(mid, 0, cls(), mid)
	}
	post := a.AddState()
	a.AddEdge(mid, Close(0), cls(), post)
	a.AddFinal(mid, Close(0))
	a.AddEdge(post, 0, cls(), post)
	a.AddFinal(post, 0)
	return a
}

func randomDoc(rng *rand.Rand, n int) string {
	var b strings.Builder
	letters := "aabbc."
	for i := 0; i < n; i++ {
		b.WriteByte(letters[rng.Intn(len(letters))])
	}
	return b.String()
}

// TestEvalAgreesWithReference cross-checks the compiled lazy-DFA path
// against the retained reference simulation on random automata and
// documents — the in-process counterpart of the fuzz targets.
func TestEvalAgreesWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		a := randomAutomaton(rng)
		if err := a.Validate(); err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		for _, n := range []int{0, 1, 2, 3, 7, 40} {
			doc := randomDoc(rng, n)
			got, want := a.Eval(doc), a.EvalReference(doc)
			if !got.Equal(want) {
				t.Fatalf("instance %d: Eval differs on %q:\nlazy: %v\nref:  %v\n%s", i, doc, got, want, a)
			}
			if gb, wb := a.EvalBool(doc), a.EvalBoolReference(doc); gb != wb {
				t.Fatalf("instance %d: EvalBool=%v reference=%v on %q\n%s", i, gb, wb, doc, a)
			}
		}
	}
}

// TestSimBoolAgrees exercises the uncached subset-simulation fallback the
// evaluator switches to past the DFA state bound.
func TestSimBoolAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		a := randomAutomaton(rng)
		p := a.prog()
		for _, n := range []int{0, 1, 5, 23} {
			doc := randomDoc(rng, n)
			got := p.simBool([]int32{int32(a.Start)}, doc)
			if want := a.EvalBoolReference(doc); got != want {
				t.Fatalf("instance %d: simBool=%v reference=%v on %q", i, got, want, doc)
			}
		}
	}
}

// blowupBeforeC builds Σ*·x{a·(a|b)^k}·c·Σ*: on a/b text the forward
// DFA must remember which of the last k+1 positions held an 'a', so it
// outgrows its state bound, and without a 'c' in the right place no
// boundary ever holds an emit state to end the walk early.
func blowupBeforeC(k int) *Automaton {
	a := NewAutomaton("x")
	a.AddEdge(0, 0, alphabet.Any, 0)
	prev := a.AddState()
	a.AddEdge(0, Open(0), alphabet.Of('a'), prev)
	for i := 0; i < k; i++ {
		next := a.AddState()
		a.AddEdge(prev, 0, alphabet.Of('a', 'b'), next)
		prev = next
	}
	post := a.AddState()
	a.AddEdge(prev, Close(0), alphabet.Of('c'), post)
	a.AddFinal(post, 0)
	a.AddEdge(post, 0, alphabet.Any, post)
	return a
}

// TestEvalBoolOverflow takes EvalBool past the forward DFA's state bound,
// onto simBool for the rest of the document, which must still answer as
// the reference does — no, and yes for a match after the overflow.
func TestEvalBoolOverflow(t *testing.T) {
	const k = 16
	a := blowupBeforeC(k)
	rng := rand.New(rand.NewSource(3))
	noise := []byte{'c'} // the mandatory factor, so the gate lets the scan run
	for len(noise) < 1<<15 {
		noise = append(noise, "ab"[rng.Intn(2)])
	}
	for _, c := range []struct {
		tail string
		want bool
	}{{strings.Repeat("b", k+1) + "c", false}, {"a" + strings.Repeat("b", k) + "c", true}} {
		doc := string(noise) + c.tail
		if got, ref := a.EvalBool(doc), a.EvalBoolReference(doc); got != c.want || ref != c.want {
			t.Fatalf("tail %q: EvalBool = %v, EvalBoolReference = %v, want %v", c.tail, got, ref, c.want)
		}
		if n := a.localizer().group.dfa.Len(); n < maxDFAStates {
			t.Fatalf("tail %q: the DFA holds %d states, below its bound of %d: no overflow", c.tail, n, maxDFAStates)
		}
	}
}

// TestEvalBoolWithoutLocalizer: an automaton the localizer cannot narrow
// — a nullary one — still gets a one-member
// scan group, with no end states, and EvalBool walks it to the document's
// end, answering as the reference does.
func TestEvalBoolWithoutLocalizer(t *testing.T) {
	containsA := NewAutomaton() // nullary: accepts any document with an 'a'
	mid := containsA.AddState()
	containsA.AddEdge(0, 0, alphabet.Any, 0)
	containsA.AddEdge(0, 0, alphabet.Of('a'), mid)
	containsA.AddEdge(mid, 0, alphabet.Any, mid)
	containsA.AddFinal(mid, 0)
	anything := NewAutomaton() // nullary: accepts every document, "" too
	anything.AddEdge(0, 0, alphabet.Any, 0)
	anything.AddFinal(0, 0)
	for name, a := range map[string]*Automaton{
		"nullary":        containsA,
		"nullary/always": anything,
	} {
		loc := a.localizer()
		if loc.ok || slices.Contains(loc.scan.end, true) {
			t.Fatalf("%s: localizer ok = %v, end states %v; want no narrowing and no end state", name, loc.ok, loc.scan.end)
		}
		for _, doc := range []string{"", "a", "b", "c", "ac", "bc", "acc", "bcb", "cab", "bbbbac"} {
			if got, want := a.EvalBool(doc), a.EvalBoolReference(doc); got != want {
				t.Fatalf("%s: EvalBool(%q) = %v, reference %v", name, doc, got, want)
			}
		}
	}
}

// TestEvalConcurrentSharedDFA evaluates one automaton from many
// goroutines so the race detector can see the shared transition cache
// being built and read concurrently.
func TestEvalConcurrentSharedDFA(t *testing.T) {
	a := buildXWrap(t)
	docs := []string{"", "a", "ba", "bbbab", "aaaa", "xyza", strings.Repeat("ab", 200)}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				d := docs[(g+i)%len(docs)]
				if a.EvalBool(d) != (a.Eval(d).Len() > 0) {
					t.Errorf("EvalBool disagrees with Eval on %q", d)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// TestMutationAfterEvalPanics is the regression test for the stale-cache
// hazard: an automaton that has been evaluated must reject further
// AddEdge/AddFinal instead of silently serving results for the old
// transition relation (the compiled program, suffix-universality bits
// included, would otherwise be stale forever).
func TestMutationAfterEvalPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s after Eval must panic", name)
			}
		}()
		f()
	}
	a := buildXWrap(t)
	a.Eval("aba")
	mustPanic("AddEdge", func() { a.AddEdge(0, 0, alphabet.Of('z'), 0) })
	mustPanic("AddFinal", func() { a.AddFinal(0, 0) })

	b := buildXWrap(t)
	b.EvalBool("aba")
	mustPanic("AddEdge", func() { b.AddEdge(0, 0, alphabet.Of('z'), 0) })

	c := buildXWrap(t)
	c.Prepare()
	mustPanic("AddFinal", func() { c.AddFinal(0, 0) })
}

// TestCloneAfterEvalIsMutable: Clone is the documented escape hatch for
// extending an already-evaluated automaton.
func TestCloneAfterEvalIsMutable(t *testing.T) {
	a := buildXWrap(t)
	a.Eval("aba")
	c := a.Clone()
	// x wraps empty at the start boundary: the clone now matches "" too.
	c.AddFinal(0, Wrap(0)) // must not panic
	if !c.EvalBool("") {
		t.Fatal("clone must accept the empty document through the new final")
	}
	if a.EvalBool("") {
		// The final was added to the clone only; the original's cached
		// evaluator must be unaffected.
		t.Fatal("original automaton must not see the clone's final")
	}
}

func TestEvalEmptyDocAndNullary(t *testing.T) {
	// Nullary (Boolean) automaton: accepts any document containing 'a'.
	a := NewAutomaton()
	mid := a.AddState()
	a.AddEdge(0, 0, alphabet.Any, 0)
	a.AddEdge(0, 0, alphabet.Of('a'), mid)
	a.AddEdge(mid, 0, alphabet.Any, mid)
	a.AddFinal(mid, 0)
	for _, c := range []struct {
		doc  string
		want bool
	}{{"", false}, {"b", false}, {"a", true}, {"bab", true}} {
		if got := a.EvalBool(c.doc); got != c.want {
			t.Fatalf("EvalBool(%q) = %v, want %v", c.doc, got, c.want)
		}
		rel := a.Eval(c.doc)
		if (rel.Len() > 0) != c.want {
			t.Fatalf("Eval(%q).Len() = %d, want nonempty=%v", c.doc, rel.Len(), c.want)
		}
		if !rel.Equal(a.EvalReference(c.doc)) {
			t.Fatalf("Eval(%q) differs from reference", c.doc)
		}
	}
}
