// Package automata implements the classical-automata substrate used by the
// spanner decision procedures: ε-free NFAs over an interned finite
// alphabet, products, subset construction, containment (general and
// deterministic), unambiguity testing, and two polynomial-time containment
// procedures for unambiguous automata — accepting-path counting per length
// (in the style of Stearns–Hunt) and Tzeng's vector-basis equivalence test
// for weighted automata. These are the engines behind Theorem 4.3,
// Lemma 5.6 and Theorem 5.7 of the paper.
package automata

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// Edge is a transition on an interned symbol.
type Edge struct {
	Sym int
	To  int
}

// NFA is an ε-free nondeterministic finite automaton over symbols
// 0..NumSymbols-1. Multiple start states are allowed.
type NFA struct {
	NumSymbols int
	Starts     []int
	Final      []bool
	Adj        [][]Edge
}

// New returns an empty NFA over an alphabet of the given size.
func New(numSymbols int) *NFA {
	return &NFA{NumSymbols: numSymbols}
}

// AddState adds a state and returns its id.
func (a *NFA) AddState(final bool) int {
	a.Final = append(a.Final, final)
	a.Adj = append(a.Adj, nil)
	return len(a.Final) - 1
}

// AddStart marks q as a start state.
func (a *NFA) AddStart(q int) { a.Starts = append(a.Starts, q) }

// AddEdge adds the transition q --sym--> to.
func (a *NFA) AddEdge(q, sym, to int) {
	if sym < 0 || sym >= a.NumSymbols {
		panic(fmt.Sprintf("automata: symbol %d out of range [0,%d)", sym, a.NumSymbols))
	}
	a.Adj[q] = append(a.Adj[q], Edge{sym, to})
}

// Len returns the number of states.
func (a *NFA) Len() int { return len(a.Final) }

// NumEdges returns the total number of transitions.
func (a *NFA) NumEdges() int {
	n := 0
	for _, es := range a.Adj {
		n += len(es)
	}
	return n
}

// DedupeEdges removes duplicate transitions in place. Counting-based
// procedures call this to ensure set semantics of the transition relation.
func (a *NFA) DedupeEdges() {
	for q, es := range a.Adj {
		if len(es) < 2 {
			continue
		}
		slices.SortFunc(es, func(x, y Edge) int {
			return cmp.Or(cmp.Compare(x.Sym, y.Sym), cmp.Compare(x.To, y.To))
		})
		a.Adj[q] = slices.Compact(es)
	}
}

// Accepts reports whether the automaton accepts the given word, by direct
// state-set simulation over integer-indexed sparse sets. The interned
// symbols are already the byte-class-compressed alphabet (each symbol is
// one alphabet atom; see internal/alphabet), so per position the loop is a
// linear scan over the frontier's edges with no hashing and no per-symbol
// allocation.
func (a *NFA) Accepts(word []int) bool {
	n := a.Len()
	cur := make([]int, 0, len(a.Starts))
	next := make([]int, 0, len(a.Starts))
	mark := make([]bool, n)
	for _, s := range a.Starts {
		if !mark[s] {
			mark[s] = true
			cur = append(cur, s)
		}
	}
	for _, q := range cur {
		mark[q] = false
	}
	for _, sym := range word {
		next = next[:0]
		for _, q := range cur {
			for _, e := range a.Adj[q] {
				if e.Sym == sym && !mark[e.To] {
					mark[e.To] = true
					next = append(next, e.To)
				}
			}
		}
		for _, q := range next {
			mark[q] = false
		}
		if len(next) == 0 {
			return false
		}
		cur, next = next, cur
	}
	for _, q := range cur {
		if a.Final[q] {
			return true
		}
	}
	return false
}

// reachable returns the set of states reachable from the start states.
func (a *NFA) reachable() []bool {
	seen := make([]bool, a.Len())
	stack := append([]int(nil), a.Starts...)
	for _, s := range stack {
		seen[s] = true
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range a.Adj[q] {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// coReachable returns the set of states from which a final state is
// reachable.
func (a *NFA) coReachable() []bool {
	rev := make([][]int, a.Len())
	for q, es := range a.Adj {
		for _, e := range es {
			rev[e.To] = append(rev[e.To], q)
		}
	}
	seen := make([]bool, a.Len())
	var stack []int
	for q, f := range a.Final {
		if f {
			seen[q] = true
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[q] {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// Trim returns an equivalent automaton restricted to accessible and
// co-accessible states (useful states). The result may have no states.
func (a *NFA) Trim() *NFA {
	reach := a.reachable()
	co := a.coReachable()
	keep := make([]int, a.Len())
	out := New(a.NumSymbols)
	for q := range keep {
		if reach[q] && co[q] {
			keep[q] = out.AddState(a.Final[q])
		} else {
			keep[q] = -1
		}
	}
	for _, s := range a.Starts {
		if keep[s] >= 0 {
			out.AddStart(keep[s])
		}
	}
	for q, es := range a.Adj {
		if keep[q] < 0 {
			continue
		}
		for _, e := range es {
			if keep[e.To] >= 0 {
				out.AddEdge(keep[q], e.Sym, keep[e.To])
			}
		}
	}
	out.DedupeEdges()
	return out
}

// IsEmpty reports whether L(a) is empty.
func (a *NFA) IsEmpty() bool {
	reach := a.reachable()
	for q, f := range a.Final {
		if f && reach[q] {
			return false
		}
	}
	return true
}

// Product returns an automaton for L(a) ∩ L(b), built over reachable
// state pairs only, numbered in breadth-first order.
func Product(a, b *NFA) *NFA {
	if a.NumSymbols != b.NumSymbols {
		panic("automata: product over different alphabets")
	}
	out := New(a.NumSymbols)
	var x Explorer
	visit := func(p, q int) int {
		id, added, _ := x.Visit(int32(p), int32(q))
		if added {
			out.AddState(a.Final[p] && b.Final[q])
		}
		return int(id)
	}
	for _, s := range a.Starts {
		for _, t := range b.Starts {
			out.AddStart(visit(s, t))
		}
	}
	for from := 0; from < x.Len(); from++ {
		c := x.Config(int32(from))
		p, q := c[0], c[1]
		for _, ea := range a.Adj[p] {
			for _, eb := range b.Adj[q] {
				if ea.Sym == eb.Sym {
					out.AddEdge(from, ea.Sym, visit(ea.To, eb.To))
				}
			}
		}
	}
	out.DedupeEdges()
	return out
}

// Union returns an automaton for L(a) ∪ L(b) (disjoint union of states).
func Union(a, b *NFA) *NFA {
	if a.NumSymbols != b.NumSymbols {
		panic("automata: union over different alphabets")
	}
	out := New(a.NumSymbols)
	off := a.Len()
	for q := 0; q < a.Len(); q++ {
		out.AddState(a.Final[q])
	}
	for q := 0; q < b.Len(); q++ {
		out.AddState(b.Final[q])
	}
	for _, s := range a.Starts {
		out.AddStart(s)
	}
	for _, s := range b.Starts {
		out.AddStart(s + off)
	}
	for q, es := range a.Adj {
		for _, e := range es {
			out.AddEdge(q, e.Sym, e.To)
		}
	}
	for q, es := range b.Adj {
		for _, e := range es {
			out.AddEdge(q+off, e.Sym, e.To+off)
		}
	}
	return out
}

// IsDeterministic reports whether the automaton has at most one start state
// and at most one transition per (state, symbol).
func (a *NFA) IsDeterministic() bool {
	if len(a.Starts) > 1 {
		return false
	}
	for _, es := range a.Adj {
		seen := map[int]int{}
		for _, e := range es {
			if to, ok := seen[e.Sym]; ok && to != e.To {
				return false
			}
			seen[e.Sym] = e.To
		}
	}
	return true
}

// ErrTooLarge is returned by subset-construction based procedures when the
// intermediate deterministic automaton exceeds the configured state limit;
// these problems are PSPACE-complete (Theorem 4.1), so a limit keeps the
// library's behavior predictable on adversarial inputs.
var ErrTooLarge = errors.New("automata: subset construction exceeds state limit")

// DefaultLimit bounds the number of determinized states explored by
// Determinize and Contains.
const DefaultLimit = 1 << 20

// Determinize returns a deterministic automaton (complete over the
// alphabet, including a possible dead state) equivalent to a; states are
// numbered in breadth-first order from the start subset. It is
// Subsets.Explore read back as an NFA, so every (subset, symbol) step is
// computed once. It fails with ErrTooLarge if more than limit subset
// states are produced; a limit ≤ 0 means DefaultLimit.
func (a *NFA) Determinize(limit int) (*NFA, error) {
	if limit <= 0 {
		limit = DefaultLimit
	}
	t := NewSubsets(a)
	if err := t.Explore(limit); err != nil {
		return nil, err
	}
	out := New(a.NumSymbols)
	for id := int32(0); int(id) < t.Len(); id++ {
		q := out.AddState(t.Final(id))
		for sym := 0; sym < a.NumSymbols; sym++ {
			out.AddEdge(q, sym, int(t.Step(id, sym)))
		}
	}
	out.AddStart(0)
	return out, nil
}

// Contains decides L(a) ⊆ L(b) by a breadth-first search of the product
// of a with the on-the-fly subset construction of b. Product nodes are
// (state of a, subset id) pairs over one Subsets table of b, which
// memoizes each subset's final flag and each (subset, symbol) successor:
// however many states of a meet the same subset, its steps are computed
// once. limit bounds the number of product nodes explored — not the
// number of subsets — and past it Contains fails with ErrTooLarge (≤ 0
// means DefaultLimit). If the languages are not contained, witness holds
// a shortest counterexample word.
func Contains(a, b *NFA, limit int) (ok bool, witness []int, err error) {
	if a.NumSymbols != b.NumSymbols {
		panic("automata: containment over different alphabets")
	}
	if limit <= 0 {
		limit = DefaultLimit
	}
	type entry struct {
		p, set int32
		prev   int32 // index into bfs, -1 for roots
		sym    int32
	}
	t := NewSubsets(b)
	// seen is one bitset over a's states per subset id, grown with the
	// table; nodes counts its set bits, i.e. the explored product nodes.
	// Both start sized for as many subsets, and nodes, as the larger
	// automaton has states (at most presize).
	words, n := (a.Len()+63)/64, min(max(a.Len(), b.Len()), presize)
	seen := make([]uint64, 0, words*n)
	nodes := 0
	bfs := make([]entry, 0, n)
	// enqueue adds the node (p, set) to the search unless it was already
	// explored, and reports whether it was new.
	enqueue := func(p, set, prev, sym int32) bool {
		slot, bit := int(set)*words+int(p)/64, uint64(1)<<(p%64)
		for len(seen) <= slot {
			seen = append(seen, 0)
		}
		if seen[slot]&bit != 0 {
			return false
		}
		seen[slot] |= bit
		nodes++
		bfs = append(bfs, entry{p, set, prev, sym})
		return true
	}
	bStart := t.Start()
	for _, s := range a.Starts {
		enqueue(int32(s), bStart, -1, -1)
	}
	for i := 0; i < len(bfs); i++ {
		p, set := bfs[i].p, bfs[i].set
		if a.Final[p] && !t.Final(set) {
			for j := int32(i); bfs[j].sym >= 0; j = bfs[j].prev {
				witness = append(witness, int(bfs[j].sym))
			}
			slices.Reverse(witness)
			return false, witness, nil
		}
		for _, e := range a.Adj[p] {
			// Roots are never refused; the first later node past the
			// budget is.
			if enqueue(int32(e.To), t.Step(set, e.Sym), int32(i), int32(e.Sym)) && nodes > limit {
				return false, nil, ErrTooLarge
			}
		}
	}
	return true, nil, nil
}

// ContainsDet decides L(a) ⊆ L(b) for deterministic b in time linear in
// the product, the automaton-level analogue of Theorem 4.3's NL bound.
func ContainsDet(a, b *NFA) (ok bool, witness []int) {
	if !b.IsDeterministic() {
		panic("automata: ContainsDet requires deterministic b")
	}
	det := map[int]map[int]int{}
	for q, es := range b.Adj {
		m := map[int]int{}
		for _, e := range es {
			m[e.Sym] = e.To
		}
		det[q] = m
	}
	const dead = -1
	// A configuration is (state of a, state of b or dead); each keeps the
	// link it was first reached by, so a failure is a shortest witness.
	x := Explorer{Trace: true}
	bq := int32(dead)
	if len(b.Starts) > 0 {
		bq = int32(b.Starts[0])
	}
	for _, s := range a.Starts {
		x.Visit(int32(s), bq)
	}
	for id := int32(0); int(id) < x.Len(); id++ {
		c := x.Config(id)
		p, q := c[0], int(c[1])
		if a.Final[p] && (q == dead || !b.Final[q]) {
			return false, x.Path(id)
		}
		for _, e := range a.Adj[p] {
			nq := dead
			if q != dead {
				if to, ok := det[q][e.Sym]; ok {
					nq = to
				}
			}
			x.Step(id, int32(e.Sym), int32(e.To), int32(nq))
		}
	}
	return true, nil
}

// Equivalent decides L(a) = L(b) via two containment checks.
func Equivalent(a, b *NFA, limit int) (bool, error) {
	ok, _, err := Contains(a, b, limit)
	if err != nil || !ok {
		return false, err
	}
	ok, _, err = Contains(b, a, limit)
	return ok, err
}

// IsUnambiguous reports whether no word has two distinct accepting runs.
// Two distinct accepting runs on the same word yield a reachable
// off-diagonal pair in the self-product that can still reach a pair of
// final states, so the test is a forward pass over the self-product of the
// trimmed automaton followed by a backward pass from final-final pairs.
// Duplicate edges are removed first (two syntactically identical edges do
// not constitute two runs).
func (a *NFA) IsUnambiguous() bool {
	t := a.Trim()
	// Forward: the reachable pairs, and per pair the pairs stepping to it.
	var x Explorer
	var rev [][]int32
	visit := func(p, q int) int32 {
		id, added, _ := x.Visit(int32(p), int32(q))
		if added {
			rev = append(rev, nil)
		}
		return id
	}
	for _, s := range t.Starts {
		for _, u := range t.Starts {
			visit(s, u)
		}
	}
	for id := int32(0); int(id) < x.Len(); id++ {
		c := x.Config(id)
		p, q := c[0], c[1]
		for _, e1 := range t.Adj[p] {
			for _, e2 := range t.Adj[q] {
				if e1.Sym == e2.Sym {
					to := visit(e1.To, e2.To)
					rev[to] = append(rev[to], id)
				}
			}
		}
	}
	// Backward: which reachable pairs can reach a (final, final) pair?
	co := make([]bool, x.Len())
	var stack []int32
	for id := range co {
		if c := x.Config(int32(id)); t.Final[c[0]] && t.Final[c[1]] {
			co[id] = true
			stack = append(stack, int32(id))
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, prev := range rev[id] {
			if !co[prev] {
				co[prev] = true
				stack = append(stack, prev)
			}
		}
	}
	for id, ok := range co {
		if c := x.Config(int32(id)); ok && c[0] != c[1] {
			return false
		}
	}
	return true
}
