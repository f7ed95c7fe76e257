package vsa

import (
	"fmt"

	"repro/internal/alphabet"
)

// RawLabelKind discriminates the label of a raw VSet-automaton edge.
type RawLabelKind int

// The three raw label kinds of Section 4.2: byte classes (Σ-transitions),
// ε, and single variable operations.
const (
	LabelSymbol RawLabelKind = iota
	LabelEpsilon
	LabelOp
)

// RawEdge is one transition of a Raw automaton.
type RawEdge struct {
	Kind  RawLabelKind
	Class alphabet.Class // for LabelSymbol
	Op    OpSet          // for LabelOp: a single Open(v) or Close(v)
	To    int
}

// Raw is a standard VSet-automaton: an ε-NFA over Σ ∪ ΓV as defined in
// Section 4.2. It is the natural compilation target for regex formulas and
// the representation on which the paper's notions of weak determinism are
// stated; decision procedures operate on the compiled Automaton form.
type Raw struct {
	Vars  []string
	Start int
	Final []bool
	Adj   [][]RawEdge
}

// NewRaw returns a raw automaton with one non-final start state.
func NewRaw(vars ...string) *Raw {
	if len(vars) > MaxVars {
		panic(fmt.Sprintf("vsa: at most %d variables are supported", MaxVars))
	}
	return &Raw{Vars: append([]string(nil), vars...), Final: []bool{false}, Adj: [][]RawEdge{nil}}
}

// AddState adds a state and returns its id.
func (r *Raw) AddState(final bool) int {
	r.Final = append(r.Final, final)
	r.Adj = append(r.Adj, nil)
	return len(r.Final) - 1
}

// AddSymbolEdge adds q --class--> to.
func (r *Raw) AddSymbolEdge(q int, class alphabet.Class, to int) {
	r.Adj[q] = append(r.Adj[q], RawEdge{Kind: LabelSymbol, Class: class, To: to})
}

// AddEpsilonEdge adds q --ε--> to.
func (r *Raw) AddEpsilonEdge(q, to int) {
	r.Adj[q] = append(r.Adj[q], RawEdge{Kind: LabelEpsilon, To: to})
}

// AddOpEdge adds q --op--> to for a single variable operation.
func (r *Raw) AddOpEdge(q int, op OpSet, to int) {
	if op.Count() != 1 {
		panic("vsa: AddOpEdge takes a single variable operation")
	}
	r.Adj[q] = append(r.Adj[q], RawEdge{Kind: LabelOp, Op: op, To: to})
}

// NumStates returns the number of states.
func (r *Raw) NumStates() int { return len(r.Final) }

// IsWeaklyDeterministic reports whether the automaton is weakly
// deterministic in the sense of Maturana et al. (Section 4.2): no
// ε-transitions and at most one transition per state and per letter of the
// extended alphabet Σ ∪ ΓV. Byte-class edges are weakly deterministic if
// classes leading to different states are disjoint. Theorem 4.2 shows
// containment remains PSPACE-hard for this class.
func (r *Raw) IsWeaklyDeterministic() bool {
	for _, es := range r.Adj {
		var ops = map[OpSet][]int{}
		var sym []RawEdge
		for _, e := range es {
			switch e.Kind {
			case LabelEpsilon:
				return false
			case LabelOp:
				ops[e.Op] = append(ops[e.Op], e.To)
			case LabelSymbol:
				sym = append(sym, e)
			}
		}
		for _, tos := range ops {
			for i := 1; i < len(tos); i++ {
				if tos[i] != tos[0] {
					return false
				}
			}
		}
		for i := 0; i < len(sym); i++ {
			for j := i + 1; j < len(sym); j++ {
				if sym[i].To != sym[j].To && sym[i].Class.Intersects(sym[j].Class) {
					return false
				}
			}
		}
	}
	return true
}

// Compile converts a raw VSet-automaton into the functional extended form.
// The construction is a product with the variable-validity monitor: states
// are pairs (raw state, status vector), transitions follow maximal blocks
// of ε- and operation-edges between byte edges, and acceptance requires
// the all-closed status. Invalid ref-words (variable misuse) are pruned,
// so ⟦Compile(r)⟧ = ⟦r⟧ under the Ref(A) semantics of Section 4.2, and the
// result is functional by construction. The worst-case blowup is 3^|Vars|,
// the price of functionality; IE spanners use few variables.
func (r *Raw) Compile() *Automaton {
	out := NewAutomaton(r.Vars...)
	type key struct {
		q  int
		st Status
	}
	id := map[key]int{{r.Start, 0}: 0}
	queue := []key{{r.Start, 0}}
	intern := func(k key) int {
		if i, ok := id[k]; ok {
			return i
		}
		i := out.AddState()
		id[k] = i
		queue = append(queue, k)
		return i
	}
	allClosed := AllClosed(len(r.Vars))
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		from := id[k]
		// Closure over ε/op edges: all (state, status) pairs reachable
		// from k without consuming input.
		type node struct {
			q  int
			st Status
		}
		seen := map[node]bool{{k.q, k.st}: true}
		stack := []node{{k.q, k.st}}
		var closure []node
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			closure = append(closure, n)
			for _, e := range r.Adj[n.q] {
				switch e.Kind {
				case LabelEpsilon:
					nn := node{e.To, n.st}
					if !seen[nn] {
						seen[nn] = true
						stack = append(stack, nn)
					}
				case LabelOp:
					if st, ok := n.st.Apply(e.Op); ok {
						nn := node{e.To, st}
						if !seen[nn] {
							seen[nn] = true
							stack = append(stack, nn)
						}
					}
				}
			}
		}
		for _, n := range closure {
			ops := k.st.Diff(n.st, len(r.Vars))
			if r.Final[n.q] && n.st == allClosed {
				out.AddFinal(from, ops)
			}
			for _, e := range r.Adj[n.q] {
				if e.Kind != LabelSymbol || e.Class.IsEmpty() {
					continue
				}
				to := intern(key{e.To, n.st})
				out.AddEdge(from, ops, e.Class, to)
			}
		}
	}
	return out
}

// ToRaw expands an extended automaton back into standard VSet-automaton
// form, turning every operation set into a chain of single-operation edges
// in canonical ≺ order. The result satisfies the paper's dVSA ordering
// condition (2) whenever the input was deterministic.
func (a *Automaton) ToRaw() *Raw {
	out := NewRaw(a.Vars...)
	out.Start = 0
	// State 0 of out corresponds to state 0 of a; add the rest.
	ids := make([]int, len(a.States))
	for q := range a.States {
		if q == 0 {
			ids[q] = 0
			continue
		}
		ids[q] = out.AddState(false)
	}
	// Start alignment: raw state ids mirror a's, with a.Start tracked.
	out.Start = ids[a.Start]
	// Chains of single operations are shared per (state, prefix) so that a
	// deterministic input yields a raw automaton that still has at most one
	// transition per state and extended-alphabet letter.
	type chainKey struct {
		from int
		op   OpSet
	}
	chain := map[chainKey]int{}
	opsChain := func(from int, ops OpSet) int {
		cur := from
		for v := 0; v < len(a.Vars); v++ {
			for _, op := range []OpSet{Open(v), Close(v)} {
				if !ops.Has(op) {
					continue
				}
				k := chainKey{cur, op}
				next, ok := chain[k]
				if !ok {
					next = out.AddState(false)
					chain[k] = next
					out.AddOpEdge(cur, op, next)
				}
				cur = next
			}
		}
		return cur
	}
	acceptAll := out.AddState(true)
	for q, s := range a.States {
		for _, e := range s.Edges {
			mid := opsChain(ids[q], e.Ops)
			out.AddSymbolEdge(mid, e.Class, ids[e.To])
		}
		for _, f := range s.Finals {
			end := opsChain(ids[q], f)
			out.AddEpsilonEdge(end, acceptAll)
		}
	}
	return out
}
