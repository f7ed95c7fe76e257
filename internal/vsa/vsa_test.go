package vsa

import (
	"slices"
	"testing"

	"repro/internal/alphabet"
)

func TestOpSetBasics(t *testing.T) {
	o := Open(0) | Close(0) | Open(2)
	if !o.OpensVar(0) || !o.ClosesVar(0) || !o.OpensVar(2) || o.OpensVar(1) {
		t.Fatal("OpSet membership broken")
	}
	if o.Count() != 3 {
		t.Fatalf("Count = %d", o.Count())
	}
	if Wrap(1) != Open(1)|Close(1) {
		t.Fatal("Wrap broken")
	}
	if AllOps(2) != Open(0)|Close(0)|Open(1)|Close(1) {
		t.Fatal("AllOps broken")
	}
	if AllOps(0) != 0 {
		t.Fatal("AllOps(0) must be empty")
	}
}

func TestStatusApply(t *testing.T) {
	st := Status(0)
	st2, ok := st.Apply(Open(0))
	if !ok || st2.VarStatus(0) != statusOpen {
		t.Fatal("open failed")
	}
	st3, ok := st2.Apply(Close(0))
	if !ok || st3.VarStatus(0) != statusClosed {
		t.Fatal("close failed")
	}
	if _, ok := st3.Apply(Open(0)); ok {
		t.Fatal("reopening must fail")
	}
	if _, ok := st.Apply(Close(0)); ok {
		t.Fatal("closing unopened must fail")
	}
	// Wrap applies open before close thanks to the canonical order.
	st4, ok := st.Apply(Wrap(1))
	if !ok || st4.VarStatus(1) != statusClosed {
		t.Fatal("wrap failed")
	}
	if AllClosed(2).VarStatus(0) != statusClosed || AllClosed(2).VarStatus(1) != statusClosed {
		t.Fatal("AllClosed broken")
	}
}

func TestStatusDiff(t *testing.T) {
	st := Status(0)
	cur, _ := st.Apply(Open(0) | Wrap(1))
	if d := st.Diff(cur, 2); d != Open(0)|Wrap(1) {
		t.Fatalf("Diff = %v", d)
	}
	if d := cur.Diff(cur, 2); d != 0 {
		t.Fatalf("self Diff = %v", d)
	}
}

// buildXWrap returns the eVSA for the formula Σ* x{a} Σ* built by hand.
func buildXWrap(t *testing.T) *Automaton {
	t.Helper()
	a := NewAutomaton("x")
	mid := a.AddState()
	post := a.AddState()
	a.AddEdge(0, 0, alphabet.Any, 0)             // Σ* prefix
	a.AddEdge(0, Open(0), alphabet.Of('a'), mid) // x opens, reads 'a'
	a.AddEdge(mid, Close(0), alphabet.Any, post) // x closes, then a suffix byte
	a.AddFinal(mid, Close(0))                    // x closes at end of document
	a.AddEdge(post, 0, alphabet.Any, post)       // Σ* suffix
	a.AddFinal(post, 0)
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return a
}

func TestEvalHandBuilt(t *testing.T) {
	a := buildXWrap(t)
	rel := a.Eval("aba")
	if rel.Len() != 2 {
		t.Fatalf("expected 2 matches of x{a} in aba, got %d: %v", rel.Len(), rel)
	}
	for _, tp := range rel.Tuples {
		if tp[0].In("aba") != "a" {
			t.Fatalf("tuple %v does not select a", tp)
		}
	}
}

func TestEvalBoolMatchesEval(t *testing.T) {
	a := buildXWrap(t)
	for _, d := range []string{"", "b", "a", "bb", "ab", "bab", "bbb"} {
		if a.EvalBool(d) != (a.Eval(d).Len() > 0) {
			t.Fatalf("EvalBool disagrees with Eval on %q", d)
		}
	}
}

func TestValidateCatchesBrokenAutomata(t *testing.T) {
	a := NewAutomaton("x")
	// Close x without opening it.
	a.AddFinal(0, Close(0))
	if err := a.Validate(); err == nil {
		t.Fatal("Validate must reject closing an unopened variable")
	}
	b := NewAutomaton("x")
	// Final leaves x unopened.
	b.AddFinal(0, 0)
	if err := b.Validate(); err == nil {
		t.Fatal("Validate must reject unclosed variables at acceptance")
	}
	c := NewAutomaton("x")
	mid := c.AddState()
	c.AddEdge(0, Open(0), alphabet.Any, mid)
	c.AddEdge(0, 0, alphabet.Any, mid) // same state, conflicting statuses
	if _, err := c.Statuses(); err == nil {
		t.Fatal("Statuses must detect conflicting statuses")
	}
}

func TestTrimRemovesUselessStates(t *testing.T) {
	a := NewAutomaton()
	dead := a.AddState()
	a.AddEdge(0, 0, alphabet.Any, dead) // dead end: no finals reachable
	live := a.AddState()
	a.AddEdge(0, 0, alphabet.Of('a'), live)
	a.AddFinal(live, 0)
	tr := a.Trim()
	if tr.NumStates() != 2 {
		t.Fatalf("Trim left %d states, want 2", tr.NumStates())
	}
	if !tr.EvalBool("a") || tr.EvalBool("b") {
		t.Fatal("Trim changed the language")
	}
}

// TestUseful pins the one reachable-and-co-reachable walk Trim, the
// prefilter and core's splitter scanner share. Every automaton has states
// 0 (start) … 4; edges are (from, to) pairs on 'a', finals a state list.
func TestUseful(t *testing.T) {
	for _, c := range []struct {
		name   string
		edges  [][2]int
		finals []int
		want   []bool
	}{
		{"unreachable state", [][2]int{{0, 1}, {2, 1}, {3, 2}}, []int{1},
			[]bool{true, true, false, false, false}},
		{"dead end", [][2]int{{0, 1}, {0, 2}, {2, 2}}, []int{1},
			[]bool{true, true, false, false, false}},
		{"empty language", [][2]int{{0, 1}, {1, 2}, {3, 4}}, []int{4},
			[]bool{false, false, false, false, false}},
		{"reachable only past a dead end", [][2]int{{0, 1}, {0, 2}, {2, 3}, {3, 3}, {4, 1}}, []int{1},
			[]bool{true, true, false, false, false}},
		{"a cycle back to the start", [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}}, []int{0},
			[]bool{true, true, true, false, false}},
	} {
		a := NewAutomaton()
		for a.NumStates() < 5 {
			a.AddState()
		}
		for _, e := range c.edges {
			a.AddEdge(e[0], 0, alphabet.Of('a'), e[1])
		}
		for _, q := range c.finals {
			a.AddFinal(q, 0)
		}
		if got := a.Useful(); !slices.Equal(got, c.want) {
			t.Errorf("%s: Useful = %v, want %v", c.name, got, c.want)
		}
		if got, want := a.IsEmptyLanguage(), !c.want[0]; got != want {
			t.Errorf("%s: IsEmptyLanguage = %v, want %v", c.name, got, want)
		}
	}
}

func TestIsEmptyLanguage(t *testing.T) {
	a := NewAutomaton("x")
	if !a.IsEmptyLanguage() {
		t.Fatal("fresh automaton must be empty")
	}
	mid := a.AddState()
	a.AddEdge(0, Wrap(0), alphabet.Any, mid)
	a.AddFinal(mid, 0)
	if a.IsEmptyLanguage() {
		t.Fatal("automaton with accepting path must be nonempty")
	}
}

func TestReorderVars(t *testing.T) {
	a := NewAutomaton("x", "y")
	mid := a.AddState()
	a.AddEdge(0, Wrap(0)|Open(1), alphabet.Of('a'), mid)
	a.AddFinal(mid, Close(1))
	b, err := a.ReorderVars([]string{"y", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if b.Vars[0] != "y" || b.Vars[1] != "x" {
		t.Fatal("vars not reordered")
	}
	ra := a.Eval("a")
	rb := b.Eval("a")
	// Same tuples modulo column order.
	pa, _ := ra.Project([]string{"x", "y"})
	pb, _ := rb.Project([]string{"x", "y"})
	if !pa.Equal(pb) {
		t.Fatalf("reorder changed semantics: %v vs %v", pa, pb)
	}
	if _, err := a.ReorderVars([]string{"x", "z"}); err == nil {
		t.Fatal("reorder with unknown variable must fail")
	}
}

func TestIsDeterministic(t *testing.T) {
	a := NewAutomaton()
	s1 := a.AddState()
	s2 := a.AddState()
	a.AddEdge(0, 0, alphabet.Of('a'), s1)
	a.AddEdge(0, 0, alphabet.Of('b'), s2)
	if !a.IsDeterministic() {
		t.Fatal("disjoint classes must be deterministic")
	}
	a.AddEdge(0, 0, alphabet.Of('a', 'c'), s2)
	if a.IsDeterministic() {
		t.Fatal("overlapping classes to different states must be nondeterministic")
	}
}
