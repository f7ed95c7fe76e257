package vsa

import (
	"fmt"
	"slices"

	"repro/internal/alphabet"
	"repro/internal/automata"
)

// SymTab interns the extended alphabet shared by a family of automata that
// are to be compared: byte atoms (the coarsest partition refining every
// byte class of every automaton) followed by operation-set symbols. A
// (document, tuple) pair corresponds to exactly one extended word
// O₀ a₁ O₁ a₂ … aₙ Oₙ — operation sets at every boundary (possibly ∅)
// alternating with byte atoms — so spanner containment coincides with
// word-language containment of the translated NFAs (for functional
// automata over the same variable list), which is how Theorems 4.1 and 4.3
// are realized.
type SymTab struct {
	AtomsList []alphabet.Class
	opSyms    map[OpSet]int
	opOrder   []OpSet
	classes   []alphabet.Class // every edge class of the automata, once
	syms, end []int            // classes[i]'s atoms are syms[end[i]:end[i+1]]
}

// NewSymTab builds a shared symbol table for the given automata. All op
// sets appearing on edges or finals are interned, as is the empty set.
func NewSymTab(autos ...*Automaton) *SymTab {
	t := &SymTab{opSyms: map[OpSet]int{}}
	addOps := func(o OpSet) {
		if _, ok := t.opSyms[o]; !ok {
			t.opSyms[o] = len(t.opOrder) // resolved to symbol ids later
			t.opOrder = append(t.opOrder, o)
		}
	}
	addOps(0)
	for _, a := range autos {
		t.classes = a.appendClasses(t.classes)
		for _, s := range a.States {
			for _, e := range s.Edges {
				addOps(e.Ops)
			}
			for _, f := range s.Finals {
				addOps(f)
			}
		}
	}
	t.AtomsList = alphabet.Atoms(t.classes)
	for i, o := range t.opOrder {
		t.opSyms[o] = len(t.AtomsList) + i
	}
	t.end = make([]int, len(t.classes)+1)
	for i, c := range t.classes {
		t.syms = t.appendAtomSyms(t.syms, c)
		t.end[i+1] = len(t.syms)
	}
	return t
}

// NumSymbols returns the size of the interned alphabet.
func (t *SymTab) NumSymbols() int { return len(t.AtomsList) + len(t.opOrder) }

// OpSym returns the symbol id of an operation set; it panics if the set
// was not interned, which indicates the symbol table was built from the
// wrong automata.
func (t *SymTab) OpSym(o OpSet) int {
	s, ok := t.opSyms[o]
	if !ok {
		panic(fmt.Sprintf("vsa: operation set %v not in symbol table", o))
	}
	return s
}

// AtomSyms returns the symbol ids of all atoms contained in class. For a
// class of the table's automata the answer was computed once, by
// NewSymTab, and the returned slice is shared: callers must not modify it.
func (t *SymTab) AtomSyms(class alphabet.Class) []int {
	if i := slices.Index(t.classes, class); i >= 0 {
		return t.syms[t.end[i]:t.end[i+1]:t.end[i+1]]
	}
	return t.appendAtomSyms(nil, class)
}

func (t *SymTab) appendAtomSyms(out []int, class alphabet.Class) []int {
	for i, a := range t.AtomsList {
		if class.ContainsClass(a) {
			out = append(out, i)
		}
	}
	return out
}

// WordNFA translates the automaton into an NFA over the extended words of
// tab. States alternate between "expecting an operation set" (the original
// states) and "expecting a byte" (one per (state, ops) pair in use); the
// accepting states are the (state, final-ops) pairs. The translation
// preserves determinism.
func (a *Automaton) WordNFA(tab *SymTab) *automata.NFA {
	// The byte-expecting states follow a's, numbered by state and then by
	// first use among its edges and finals: state q's for ops[i] is n+i,
	// first[q] ≤ i < first[q+1], and deg[i] counts its edges. A first
	// pass numbers and counts them, so that every state's edges can be
	// carved out of one backing array.
	n := len(a.States)
	first := make([]int, n+1)
	var ops []OpSet
	var deg []int
	mid := func(q int, o OpSet) int {
		for i := first[q]; i < len(ops); i++ {
			if ops[i] == o {
				return i
			}
		}
		ops, deg = append(ops, o), append(deg, 0)
		return len(ops) - 1
	}
	total := 0
	for q, s := range a.States {
		first[q] = len(ops)
		for _, e := range s.Edges {
			k := len(tab.AtomSyms(e.Class))
			deg[mid(q, e.Ops)] += k
			total += k
		}
		for _, f := range s.Finals {
			mid(q, f)
		}
	}
	first[n] = len(ops)
	nfa := &automata.NFA{
		NumSymbols: tab.NumSymbols(),
		Starts:     []int{a.Start},
		Final:      make([]bool, n+len(ops)),
		Adj:        make([][]automata.Edge, n+len(ops)),
	}
	backing := make([]automata.Edge, total+len(ops))
	for q, s := range a.States {
		k := first[q+1] - first[q]
		nfa.Adj[q], backing = backing[:0:k], backing[k:]
		for i := first[q]; i < first[q+1]; i++ {
			nfa.Adj[q] = append(nfa.Adj[q], automata.Edge{Sym: tab.OpSym(ops[i]), To: n + i})
			nfa.Adj[n+i], backing = backing[:0:deg[i]], backing[deg[i]:]
		}
		for _, e := range s.Edges {
			m := n + mid(q, e.Ops)
			for _, sym := range tab.AtomSyms(e.Class) {
				nfa.Adj[m] = append(nfa.Adj[m], automata.Edge{Sym: sym, To: e.To})
			}
		}
		for _, f := range s.Finals {
			nfa.Final[n+mid(q, f)] = true
		}
	}
	nfa.DedupeEdges()
	return nfa
}

// sameVars reports whether two automata use the same variable list in the
// same order.
func sameVars(a, b *Automaton) bool {
	if len(a.Vars) != len(b.Vars) {
		return false
	}
	for i := range a.Vars {
		if a.Vars[i] != b.Vars[i] {
			return false
		}
	}
	return true
}

// alignVars reorders b's variables to match a's; containment is only
// defined for spanners over the same variable set.
func alignVars(a, b *Automaton) (*Automaton, error) {
	if sameVars(a, b) {
		return b, nil
	}
	return b.ReorderVars(a.Vars)
}

// comparison is the outcome of comparing two automata over one aligned
// pair: b's variables reordered to a's, one symbol table over both, and
// both translated to NFAs over its extended words — all built once,
// however many containment directions run over them.
type comparison struct {
	tab       *SymTab
	contained bool  // every direction asked for holds
	witness   []int // else: a shortest extended word one side accepts alone
}

// compare decides L(a) ⊆ L(b) and, when bothWays is set and that holds,
// L(b) ⊆ L(a). Each direction is the linear product of Theorem 4.3 when
// its right-hand side is deterministic and automata.Contains bounded by
// limit otherwise.
func compare(a, b *Automaton, limit int, bothWays bool) (comparison, error) {
	b, err := alignVars(a, b)
	if err != nil {
		return comparison{}, err
	}
	c := comparison{tab: NewSymTab(a, b)}
	na, nb := a.WordNFA(c.tab), b.WordNFA(c.tab)
	contains := func(x, y *automata.NFA) (err error) {
		if y.IsDeterministic() {
			c.contained, c.witness = automata.ContainsDet(x, y)
		} else {
			c.contained, c.witness, err = automata.Contains(x, y, limit)
		}
		return err
	}
	if err := contains(na, nb); err != nil || !c.contained || !bothWays {
		return c, err
	}
	return c, contains(nb, na)
}

// counterExample decodes the witness of a failed comparison into a
// document, choosing the smallest byte of each atom.
func (c comparison) counterExample() (doc string, found bool) {
	if c.contained {
		return "", false
	}
	var buf []byte
	for _, sym := range c.witness {
		if sym < len(c.tab.AtomsList) {
			b, _ := c.tab.AtomsList[sym].Min()
			buf = append(buf, b)
		}
	}
	return string(buf), true
}

// Contained decides ⟦a⟧ ⊆ ⟦b⟧ (Theorem 4.1). The general case uses an
// on-the-fly subset construction and is exponential in the worst case —
// the problem is PSPACE-complete — guarded by limit, which counts the
// product nodes automata.Contains explores (≤ 0 means
// automata.DefaultLimit). When b is deterministic the product-based
// Theorem 4.3 procedure is used instead and limit is irrelevant.
func Contained(a, b *Automaton, limit int) (bool, error) {
	c, err := compare(a, b, limit, false)
	return c.contained, err
}

// Equivalent decides ⟦a⟧ = ⟦b⟧ by two containment checks over one
// aligned pair: the symbol table and both word NFAs are built once and
// shared by the two directions; each direction memoizes its subset
// steps in its own automata.Subsets table. limit applies to each
// direction separately and still counts explored product nodes.
func Equivalent(a, b *Automaton, limit int) (bool, error) {
	c, err := compare(a, b, limit, true)
	return c.contained, err
}

// CounterExample searches for a document and tuple accepted by a but not
// by b; it returns found=false if none exists. The document is decoded
// from a shortest extended word separating the two.
func CounterExample(a, b *Automaton, limit int) (doc string, found bool, err error) {
	c, err := compare(a, b, limit, false)
	if err != nil {
		return "", false, err
	}
	doc, found = c.counterExample()
	return doc, found, nil
}

// Distinguish searches for a document on which a and b disagree: one
// accepted (with some tuple) by a but not by b or, failing that, by b
// but not by a — CounterExample in both directions over one aligned
// pair. found=false means the spanners are equivalent.
func Distinguish(a, b *Automaton, limit int) (doc string, found bool, err error) {
	c, err := compare(a, b, limit, true)
	if err != nil {
		return "", false, err
	}
	doc, found = c.counterExample()
	return doc, found, nil
}
