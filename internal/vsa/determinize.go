package vsa

import (
	"slices"

	"repro/internal/automata"
)

// Determinize implements Proposition 4.4: every VSet-automaton has an
// equivalent deterministic functional one. On the extended form this is a
// subset construction over the extended alphabet of (operation set, byte)
// pairs — the alphabet of the word NFA (WordNFA), walked here on one
// automata.Subsets table. A subset of the word NFA's op-expecting states
// is a state of the result; an operation-set step followed by the atom
// steps into one target subset is one edge (the union of those atoms), and
// an operation-set step into a final subset is one of the state's final
// sets. A subset steps only on the symbols its members have edges on, so
// no step comes back empty. The canonical ≺ order on operations is baked
// into OpSet, so the result corresponds to a dfVSA in the paper's sense. The
// construction is exponential in the worst case (determinization of NFAs
// already is); limit bounds the number of result states (≤ 0 means
// automata.DefaultLimit) and ErrTooLarge is reported through the error.
func (a *Automaton) Determinize(limit int) (*Automaton, error) {
	if limit <= 0 {
		limit = automata.DefaultLimit
	}
	tab := NewSymTab(a)
	n := a.WordNFA(tab)
	t := automata.NewSubsets(n)
	// syms returns the symbols the members of subset id have edges on,
	// ascending, in buf's storage.
	syms := func(id int32, buf []int) []int {
		buf = buf[:0]
		for _, q := range t.Set(id) {
			for _, e := range n.Adj[q] {
				buf = append(buf, e.Sym)
			}
		}
		slices.Sort(buf)
		return slices.Compact(buf)
	}
	out := NewAutomaton(a.Vars...)
	// A configuration is a subset's id; its explorer id is the result
	// state.
	x := automata.Explorer{Limit: limit}
	x.Visit(t.Start())
	var ops []OpSet
	var opSyms, atoms []int
	var edges []Edge
	for i := int32(0); int(i) < x.Len(); i++ {
		set := x.Config(i)[0]
		opSyms = syms(set, opSyms)
		ops = ops[:0]
		for _, s := range opSyms {
			ops = append(ops, tab.opOrder[s-len(tab.AtomsList)])
		}
		slices.Sort(ops)
		for _, o := range ops {
			mid := t.Step(set, tab.OpSym(o))
			if t.Final(mid) {
				out.AddFinal(int(i), o)
			}
			atoms = syms(mid, atoms)
			edges = edges[:0] // one per target: the union of its atoms
			for _, at := range atoms {
				j, added, err := x.Visit(t.Step(mid, at))
				if err != nil {
					return nil, err
				}
				if added {
					out.AddState()
				}
				k := slices.IndexFunc(edges, func(e Edge) bool { return e.To == int(j) })
				if k < 0 {
					k = len(edges)
					edges = append(edges, Edge{Ops: o, To: int(j)})
				}
				edges[k].Class = edges[k].Class.Union(tab.AtomsList[at])
			}
			for _, e := range edges {
				out.AddEdge(int(i), e.Ops, e.Class, e.To)
			}
		}
	}
	return out, nil
}

// MergeEdges coalesces parallel transitions that differ only in byte class
// into a single class-union transition, shrinking automata produced by
// atom-splitting constructions. The language is unchanged. Each state's
// edges are merged in place, in order of first appearance.
func (a *Automaton) MergeEdges() {
	a.checkMutable("MergeEdges")
	for q := range a.States {
		es, n := a.States[q].Edges, 0
	next:
		for _, e := range es {
			for k := range es[:n] {
				if es[k].Ops == e.Ops && es[k].To == e.To {
					es[k].Class = es[k].Class.Union(e.Class)
					continue next
				}
			}
			es[n] = e
			n++
		}
		a.States[q].Edges = es[:n]
	}
}
