package automata

import (
	"math/rand"
	"testing"
)

// literalNFA builds an NFA accepting exactly the given words over a
// symbol alphabet of the given size.
func literalNFA(numSymbols int, words ...[]int) *NFA {
	a := New(numSymbols)
	for _, w := range words {
		s := a.AddState(len(w) == 0)
		a.AddStart(s)
		cur := s
		for i, sym := range w {
			next := a.AddState(i == len(w)-1)
			a.AddEdge(cur, sym, next)
			cur = next
		}
	}
	return a
}

// randomNFA builds a random automaton for differential tests.
func randomNFA(rng *rand.Rand, numSymbols, maxStates int) *NFA {
	a := New(numSymbols)
	n := rng.Intn(maxStates) + 1
	for i := 0; i < n; i++ {
		a.AddState(rng.Intn(3) == 0)
	}
	a.AddStart(rng.Intn(n))
	edges := rng.Intn(3 * n)
	for i := 0; i < edges; i++ {
		a.AddEdge(rng.Intn(n), rng.Intn(numSymbols), rng.Intn(n))
	}
	return a
}

// enumerate returns all words of length ≤ maxLen accepted by a.
func enumerate(a *NFA, maxLen int) map[string]bool {
	out := map[string]bool{}
	var rec func(w []int)
	rec = func(w []int) {
		if a.Accepts(w) {
			out[wordKey(w)] = true
		}
		if len(w) == maxLen {
			return
		}
		for s := 0; s < a.NumSymbols; s++ {
			rec(append(w, s))
		}
	}
	rec(nil)
	return out
}

func wordKey(w []int) string {
	b := make([]byte, len(w))
	for i, s := range w {
		b[i] = byte('a' + s)
	}
	return string(b)
}

func TestAcceptsAndTrim(t *testing.T) {
	a := literalNFA(2, []int{0, 1}, []int{1})
	if !a.Accepts([]int{0, 1}) || !a.Accepts([]int{1}) || a.Accepts([]int{0}) {
		t.Fatal("Accepts broken")
	}
	// Add junk states; Trim must preserve the language.
	junk := a.AddState(true)
	a.AddEdge(junk, 0, junk)
	tr := a.Trim()
	if tr.Len() >= a.Len() {
		t.Fatal("Trim did not remove the unreachable final state")
	}
	for w := range enumerate(a, 4) {
		_ = w
	}
	got := enumerate(tr, 4)
	want := enumerate(a, 4)
	if len(got) != len(want) {
		t.Fatalf("Trim changed language: %v vs %v", got, want)
	}
}

func TestProductIsIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		a := randomNFA(rng, 2, 5)
		b := randomNFA(rng, 2, 5)
		p := Product(a, b)
		wa, wb, wp := enumerate(a, 5), enumerate(b, 5), enumerate(p, 5)
		for w := range wp {
			if !wa[w] || !wb[w] {
				t.Fatalf("product accepts %q outside intersection", w)
			}
		}
		for w := range wa {
			if wb[w] && !wp[w] {
				t.Fatalf("product misses %q", w)
			}
		}
	}
}

func TestUnionIsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		a := randomNFA(rng, 2, 5)
		b := randomNFA(rng, 2, 5)
		u := Union(a, b)
		wa, wb, wu := enumerate(a, 5), enumerate(b, 5), enumerate(u, 5)
		for w := range wu {
			if !wa[w] && !wb[w] {
				t.Fatalf("union accepts %q outside union", w)
			}
		}
		for w := range wa {
			if !wu[w] {
				t.Fatalf("union misses %q from a", w)
			}
		}
		for w := range wb {
			if !wu[w] {
				t.Fatalf("union misses %q from b", w)
			}
		}
	}
}

func TestDeterminizePreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		a := randomNFA(rng, 2, 6)
		d, err := a.Determinize(0)
		if err != nil {
			t.Fatal(err)
		}
		if !d.IsDeterministic() {
			t.Fatal("Determinize produced a nondeterministic automaton")
		}
		wa, wd := enumerate(a, 5), enumerate(d, 5)
		if len(wa) != len(wd) {
			t.Fatalf("language changed: %d vs %d words", len(wa), len(wd))
		}
		for w := range wa {
			if !wd[w] {
				t.Fatalf("missing word %q", w)
			}
		}
	}
}

func TestContainsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		a := randomNFA(rng, 2, 5)
		b := randomNFA(rng, 2, 5)
		got, witness, err := Contains(a, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		wa, wb := enumerate(a, 6), enumerate(b, 6)
		want := true
		for w := range wa {
			if !wb[w] {
				want = false
				break
			}
		}
		if got != want {
			t.Fatalf("Contains = %v, brute force = %v", got, want)
		}
		if !got {
			if !a.Accepts(witness) || b.Accepts(witness) {
				t.Fatalf("witness %v is not a counterexample", witness)
			}
		}
	}
}

func TestContainsDetMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		a := randomNFA(rng, 2, 5)
		b := randomNFA(rng, 2, 5)
		d, err := b.Determinize(0)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := Contains(a, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, witness := ContainsDet(a, d)
		if got != want {
			t.Fatalf("ContainsDet = %v, Contains = %v", got, want)
		}
		if !got && (!a.Accepts(witness) || d.Accepts(witness)) {
			t.Fatalf("bad witness %v", witness)
		}
	}
}

func TestEquivalent(t *testing.T) {
	// (ab)* vs. ((ab)(ab))* ∪ (ab)((ab)(ab))* — same language built
	// differently.
	a := New(2)
	s0 := a.AddState(true)
	s1 := a.AddState(false)
	a.AddStart(s0)
	a.AddEdge(s0, 0, s1)
	a.AddEdge(s1, 1, s0)

	b := New(2)
	t0 := b.AddState(true)
	t1 := b.AddState(false)
	t2 := b.AddState(true)
	t3 := b.AddState(false)
	b.AddStart(t0)
	b.AddEdge(t0, 0, t1)
	b.AddEdge(t1, 1, t2)
	b.AddEdge(t2, 0, t3)
	b.AddEdge(t3, 1, t0)
	eq, err := Equivalent(a, b, 0)
	if err != nil || !eq {
		t.Fatalf("expected equivalence, got %v err %v", eq, err)
	}
	b.Final[t2] = false
	eq, err = Equivalent(a, b, 0)
	if err != nil || eq {
		t.Fatalf("expected inequivalence, got %v err %v", eq, err)
	}
}

func TestIsUnambiguous(t *testing.T) {
	// Deterministic automata are unambiguous.
	a := literalNFA(2, []int{0, 1})
	if !a.IsUnambiguous() {
		t.Fatal("single-word automaton must be unambiguous")
	}
	// Two copies of the same word: ambiguous.
	b := literalNFA(2, []int{0, 1}, []int{0, 1})
	if b.IsUnambiguous() {
		t.Fatal("duplicated word automaton must be ambiguous")
	}
	// Classic: a* ∪ a* via two branches.
	c := New(1)
	s := c.AddState(false)
	c.AddStart(s)
	x := c.AddState(true)
	y := c.AddState(true)
	c.AddEdge(s, 0, x)
	c.AddEdge(s, 0, y)
	c.AddEdge(x, 0, x)
	c.AddEdge(y, 0, y)
	if c.IsUnambiguous() {
		t.Fatal("two-branch a+ must be ambiguous")
	}
	// Unambiguous union: even-length vs odd-length words.
	d := New(1)
	e0 := d.AddState(true)
	e1 := d.AddState(true)
	d.AddStart(e0)
	d.AddEdge(e0, 0, e1)
	d.AddEdge(e1, 0, e0)
	if !d.IsUnambiguous() {
		t.Fatal("parity automaton must be unambiguous")
	}
}

func TestIsUnambiguousRandomAgainstPathCount(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 300; i++ {
		a := randomNFA(rng, 2, 4)
		a.DedupeEdges()
		got := a.IsUnambiguous()
		want := true
		var rec func(w []int)
		count := func(w []int) int {
			// count accepting runs by DP over multisets of states
			cur := map[int]int{}
			for _, s := range a.Starts {
				cur[s]++
			}
			for _, sym := range w {
				next := map[int]int{}
				for q, c := range cur {
					for _, e := range a.Adj[q] {
						if e.Sym == sym {
							next[e.To] += c
						}
					}
				}
				cur = next
			}
			total := 0
			for q, c := range cur {
				if a.Final[q] {
					total += c
				}
			}
			return total
		}
		rec = func(w []int) {
			if count(w) > 1 {
				want = false
			}
			if len(w) == 6 || !want {
				return
			}
			for s := 0; s < 2; s++ {
				rec(append(w, s))
			}
		}
		rec(nil)
		if got != want {
			t.Fatalf("IsUnambiguous = %v, brute force = %v for automaton %d", got, want, i)
		}
	}
}

// kthFromEnd builds the (n+2)-state NFA of (a|b)*a(a|b)^n, whose subset
// construction has 2^(n+1) states.
func kthFromEnd(n int) *NFA {
	a := New(2)
	s := a.AddState(false)
	a.AddStart(s)
	a.AddEdge(s, 0, s)
	a.AddEdge(s, 1, s)
	prev := a.AddState(n == 0)
	a.AddEdge(s, 0, prev)
	for i := 1; i <= n; i++ {
		q := a.AddState(i == n)
		a.AddEdge(prev, 0, q)
		a.AddEdge(prev, 1, q)
		prev = q
	}
	return a
}

// TestErrTooLarge pins where the budget bites. The numbers were taken
// from the implementation that keyed subsets by formatted strings, before
// the procedures moved onto the shared Subsets table: limit counts subset
// states for Determinize and explored product nodes for Contains, the
// first state or node past it fails, and Contains' root nodes are counted
// but never refused.
func TestErrTooLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomNFA(rng, 2, 12)
	if _, err := a.Determinize(1); err != ErrTooLarge {
		t.Fatalf("expected ErrTooLarge, got %v", err)
	}

	b := kthFromEnd(4)
	const subsets, nodes = 32, 112
	if _, err := b.Determinize(subsets - 1); err != ErrTooLarge {
		t.Fatalf("Determinize(%d) = %v, want ErrTooLarge", subsets-1, err)
	}
	if d, err := b.Determinize(subsets); err != nil || d.Len() != subsets {
		t.Fatalf("Determinize(%d) = %v states, %v", subsets, d.Len(), err)
	}
	if _, _, err := Contains(b, b, nodes-1); err != ErrTooLarge {
		t.Fatalf("Contains(limit %d) = %v, want ErrTooLarge", nodes-1, err)
	}
	if ok, _, err := Contains(b, b, nodes); err != nil || !ok {
		t.Fatalf("Contains(limit %d) = (%v, %v), want (true, nil)", nodes, ok, err)
	}

	roots := New(2)
	for i := 0; i < 3; i++ {
		roots.AddStart(roots.AddState(false))
	}
	if ok, _, err := Contains(roots, b, 1); err != nil || !ok {
		t.Fatalf("three roots, no edges, limit 1 = (%v, %v), want (true, nil)", ok, err)
	}
	roots.AddEdge(0, 0, 1)
	if _, _, err := Contains(roots, b, 3); err != ErrTooLarge {
		t.Fatalf("three roots and one more node, limit 3 = %v, want ErrTooLarge", err)
	}
	if ok, _, err := Contains(roots, b, 4); err != nil || !ok {
		t.Fatalf("three roots and one more node, limit 4 = (%v, %v), want (true, nil)", ok, err)
	}
}
