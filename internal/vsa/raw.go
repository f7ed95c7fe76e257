package vsa

import (
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/automata"
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
	allClosed := AllClosed(len(r.Vars))
	// A configuration is (raw state, status as two words); its explorer
	// id is its output state.
	var x automata.Explorer
	x.Visit(int32(r.Start), 0, 0)
	// The closure over ε/op edges from one configuration: all (state,
	// status) pairs reachable without consuming input. Its set, stack
	// and list are reused from one configuration to the next.
	type node struct {
		q  int
		st Status
	}
	var seen automata.SetTable
	var stack, closure []node
	push := func(n node) {
		lo, hi := statusCfg(n.st)
		if _, added := seen.Intern([]int32{int32(n.q), lo, hi}); added {
			stack = append(stack, n)
		}
	}
	for id := int32(0); int(id) < x.Len(); id++ {
		c := x.Config(id)
		k := node{int(c[0]), cfgStatus(c[1], c[2])}
		seen.Reset(0)
		closure = closure[:0]
		push(k)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			closure = append(closure, n)
			for _, e := range r.Adj[n.q] {
				switch e.Kind {
				case LabelEpsilon:
					push(node{e.To, n.st})
				case LabelOp:
					if st, ok := n.st.Apply(e.Op); ok {
						push(node{e.To, st})
					}
				}
			}
		}
		for _, n := range closure {
			ops := k.st.Diff(n.st, len(r.Vars))
			if r.Final[n.q] && n.st == allClosed {
				out.AddFinal(int(id), ops)
			}
			lo, hi := statusCfg(n.st)
			for _, e := range r.Adj[n.q] {
				if e.Kind != LabelSymbol || e.Class.IsEmpty() {
					continue
				}
				to, added, _ := x.Visit(int32(e.To), lo, hi)
				if added {
					out.AddState()
				}
				out.AddEdge(int(id), ops, e.Class, int(to))
			}
		}
	}
	return out
}

// statusCfg splits a status into two fields of an explorer
// configuration; cfgStatus joins them.
func statusCfg(st Status) (lo, hi int32) { return int32(st), int32(st >> 32) }

func cfgStatus(lo, hi int32) Status { return Status(uint32(lo)) | Status(uint32(hi))<<32 }

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
