package vsa

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/alphabet"
)

// Edge is a transition of an extended VSet-automaton: perform the variable
// operations Ops at the current boundary (in canonical ≺ order), then
// consume one byte of Class and move to state To.
type Edge struct {
	Ops   OpSet
	Class alphabet.Class
	To    int
}

// State holds the outgoing transitions and the accepting operation sets of
// one state. A state accepts at the end of the document by performing one
// of its Finals operation sets at the final boundary.
type State struct {
	Edges  []Edge
	Finals []OpSet
}

// Automaton is a functional extended VSet-automaton (eVSA). Functionality
// (every accepting run induces a valid ref-word) is an invariant
// maintained by all constructors in this library: Compile enforces it and
// every algebraic construction preserves it. Use Validate to check the
// invariant on hand-built automata.
type Automaton struct {
	Vars   []string
	Start  int
	States []State

	// Lazily compiled evaluation program (byte-class table, per-class
	// transition lists, suffix-universality; see dfa.go), shared by every
	// evaluation of this automaton.
	progOnce sync.Once
	progVal  *evalProg

	// Lazily compiled bidirectional match-window localizer (forward
	// end-detection DFA, reversed start-narrowing DFA; see window.go),
	// shared by every Eval of this automaton.
	localOnce sync.Once
	localVal  *localizer

	// Lazily built tag DFA program of the tagged simulation (see eval.go),
	// built on the first simulation.
	tagOnce sync.Once
	tagVal  *tagProg

	// Lazily extracted literal prefilter (mandatory factor + reason; see
	// prefilter.go), shared by every evaluation of this automaton.
	// prefDisabled turns the prefilter off (DisablePrefilter) — set
	// before freezing, like any change to the compiled state.
	prefOnce     sync.Once
	prefVal      *prefilterState
	prefDisabled bool

	// frozen is set when the first evaluation cache is built. Mutating a
	// frozen automaton would silently serve stale cached results, so
	// AddEdge/AddFinal panic instead; construct a Clone to modify.
	frozen atomic.Bool
}

// NewAutomaton returns an automaton with the given variable names and a
// single (start) state 0.
func NewAutomaton(vars ...string) *Automaton {
	if len(vars) > MaxVars {
		panic(fmt.Sprintf("vsa: at most %d variables are supported", MaxVars))
	}
	seen := map[string]bool{}
	for _, v := range vars {
		if seen[v] {
			panic(fmt.Sprintf("vsa: duplicate variable %q", v))
		}
		seen[v] = true
	}
	return &Automaton{Vars: append([]string(nil), vars...), States: make([]State, 1)}
}

// AddState adds a fresh state and returns its id.
func (a *Automaton) AddState() int {
	a.States = append(a.States, State{})
	return len(a.States) - 1
}

// AddEdge adds a transition. Duplicate transitions are ignored. AddEdge
// panics if the automaton has been evaluated (or Prepared): the evaluation
// caches built on first use would silently serve results for the old
// transition relation. Clone the automaton to extend it.
func (a *Automaton) AddEdge(from int, ops OpSet, class alphabet.Class, to int) {
	a.checkMutable("AddEdge")
	e := Edge{ops, class, to}
	for _, f := range a.States[from].Edges {
		if f == e {
			return
		}
	}
	a.States[from].Edges = append(a.States[from].Edges, e)
}

// AddFinal marks state q as accepting with the final operation set ops.
// Like AddEdge, it panics once evaluation caches exist.
func (a *Automaton) AddFinal(q int, ops OpSet) {
	a.checkMutable("AddFinal")
	for _, f := range a.States[q].Finals {
		if f == ops {
			return
		}
	}
	a.States[q].Finals = append(a.States[q].Finals, ops)
}

// checkMutable panics if evaluation caches have been built: the compiled
// program, its suffix-universality and the DFAs all describe the
// transition relation at freeze time, and mutating past them would
// silently serve stale results.
func (a *Automaton) checkMutable(op string) {
	if a.frozen.Load() {
		panic("vsa: " + op + " on an automaton that has been evaluated; evaluation caches would go stale — Clone it to modify")
	}
}

// NumStates returns the number of states.
func (a *Automaton) NumStates() int { return len(a.States) }

// NumEdges returns the number of transitions.
func (a *Automaton) NumEdges() int {
	n := 0
	for _, s := range a.States {
		n += len(s.Edges)
	}
	return n
}

// VarIndex returns the index of the named variable, or -1.
func (a *Automaton) VarIndex(name string) int {
	for i, v := range a.Vars {
		if v == name {
			return i
		}
	}
	return -1
}

// Arity returns the number of variables.
func (a *Automaton) Arity() int { return len(a.Vars) }

// Clone returns a deep copy of the automaton.
func (a *Automaton) Clone() *Automaton {
	out := &Automaton{
		Vars:   append([]string(nil), a.Vars...),
		Start:  a.Start,
		States: make([]State, len(a.States)),
	}
	for i, s := range a.States {
		out.States[i] = State{
			Edges:  append([]Edge(nil), s.Edges...),
			Finals: append([]OpSet(nil), s.Finals...),
		}
	}
	return out
}

// Classes returns all distinct byte classes appearing on edges.
func (a *Automaton) Classes() []alphabet.Class { return a.appendClasses(nil) }

// appendClasses appends to out the edge classes of a that out lacks.
func (a *Automaton) appendClasses(out []alphabet.Class) []alphabet.Class {
	for _, s := range a.States {
		for _, e := range s.Edges {
			if !slices.Contains(out, e.Class) {
				out = append(out, e.Class)
			}
		}
	}
	return out
}

// IsDeterministic reports whether the automaton is deterministic in the
// sense of Section 4.2: for every state, operation set, and byte there is
// at most one successor state. Together with functionality this is the
// dfVSA class for which containment is tractable (Theorem 4.3).
func (a *Automaton) IsDeterministic() bool {
	for _, s := range a.States {
		byOps := map[OpSet][]Edge{}
		for _, e := range s.Edges {
			byOps[e.Ops] = append(byOps[e.Ops], e)
		}
		for _, es := range byOps {
			for i := 0; i < len(es); i++ {
				for j := i + 1; j < len(es); j++ {
					if es[i].To != es[j].To && es[i].Class.Intersects(es[j].Class) {
						return false
					}
				}
			}
		}
	}
	return true
}

// Statuses returns the per-state variable-status vector. In a functional
// automaton the status is a function of the input prefix, hence unique per
// reachable state; unreachable states get status 0. An error is returned
// if two paths assign conflicting statuses, an edge misuses a variable or
// a final operation set of a reachable state does not complete its
// status — each indicates a broken (non-functional) hand-built automaton.
func (a *Automaton) Statuses() ([]Status, error) {
	st := make([]Status, len(a.States))
	known := make([]bool, len(a.States))
	st[a.Start] = 0
	known[a.Start] = true
	queue := []int{a.Start}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		if err := a.checkFinals(q, st[q]); err != nil {
			return nil, err
		}
		for _, e := range a.States[q].Edges {
			next, ok := st[q].Apply(e.Ops)
			if !ok {
				return nil, fmt.Errorf("vsa: edge from state %d misuses a variable (ops %v from status %#x)", q, e.Ops, uint64(st[q]))
			}
			if known[e.To] {
				if st[e.To] != next {
					return nil, fmt.Errorf("vsa: state %d reachable with conflicting statuses %#x and %#x", e.To, uint64(st[e.To]), uint64(next))
				}
				continue
			}
			st[e.To] = next
			known[e.To] = true
			queue = append(queue, e.To)
		}
	}
	return st, nil
}

// Validate checks the functional-eVSA invariants: statuses are consistent
// and every final operation set completes the run to the all-closed
// status. Constructions in this library maintain these invariants; tests
// call Validate on every constructed automaton.
func (a *Automaton) Validate() error {
	st, err := a.Statuses()
	for q := 0; err == nil && q < len(a.States); q++ {
		err = a.checkFinals(q, st[q])
	}
	return err
}

// checkFinals checks that every final operation set of state q, whose
// status is s, completes s to the all-closed status.
func (a *Automaton) checkFinals(q int, s Status) error {
	for _, f := range a.States[q].Finals {
		fin, ok := s.Apply(f)
		if !ok {
			return fmt.Errorf("vsa: final ops %v of state %d misuse a variable", f, q)
		}
		if fin != AllClosed(len(a.Vars)) {
			return fmt.Errorf("vsa: final ops %v of state %d leave variables unclosed", f, q)
		}
	}
	return nil
}

// Useful marks the states that lie on some accepting run: reachable from
// the start and able to reach a final-bearing state. Trim keeps exactly
// these; the prefilter's factor analysis and core's splitter scanner
// ignore the others.
func (a *Automaton) Useful() []bool {
	n := len(a.States)
	reach := make([]bool, n)
	pred := make([][]int, n) // predecessors along edges out of reachable states
	reach[a.Start] = true
	stack := []int{a.Start}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range a.States[q].Edges {
			pred[e.To] = append(pred[e.To], q)
			if !reach[e.To] {
				reach[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	useful := make([]bool, n)
	for q, s := range a.States {
		if reach[q] && len(s.Finals) > 0 {
			useful[q] = true
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range pred[q] {
			if !useful[p] {
				useful[p] = true
				stack = append(stack, p)
			}
		}
	}
	return useful
}

// Trim returns an equivalent automaton with only useful states (see
// Useful). If the language is empty the result has a single start state
// with no edges and no finals.
func (a *Automaton) Trim() *Automaton {
	useful := a.Useful()
	out := NewAutomaton(a.Vars...)
	id := make([]int, len(a.States))
	for q := range id {
		if q != a.Start && useful[q] {
			id[q] = out.AddState()
		}
	}
	for q, s := range a.States {
		if !useful[q] {
			continue
		}
		for _, e := range s.Edges {
			if useful[e.To] {
				out.AddEdge(id[q], e.Ops, e.Class, id[e.To])
			}
		}
		for _, f := range s.Finals {
			out.AddFinal(id[q], f)
		}
	}
	return out
}

// IsEmptyLanguage reports whether the automaton accepts no (document,
// tuple) pair at all.
func (a *Automaton) IsEmptyLanguage() bool { return !a.Useful()[a.Start] }

// Remap returns a copy with variables renamed according to names, which
// must be a permutation-compatible list: names[i] is the new name of
// variable i. The canonical operation order follows variable indices, so
// Remap keeps indices and only relabels.
func (a *Automaton) Remap(names []string) *Automaton {
	if len(names) != len(a.Vars) {
		panic("vsa: Remap: wrong number of names")
	}
	out := a.Clone()
	out.Vars = append([]string(nil), names...)
	return out
}

// ReorderVars returns an equivalent automaton whose variable list is
// exactly order (a permutation of a.Vars), rewriting all operation sets.
func (a *Automaton) ReorderVars(order []string) (*Automaton, error) {
	if len(order) != len(a.Vars) {
		return nil, fmt.Errorf("vsa: reorder: arity mismatch")
	}
	perm := make([]int, len(a.Vars)) // perm[old] = new
	used := make([]bool, len(order))
	for old, name := range a.Vars {
		idx := -1
		for i, n := range order {
			if n == name && !used[i] {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("vsa: reorder: variable %q missing from order", name)
		}
		used[idx] = true
		perm[old] = idx
	}
	mapOps := func(o OpSet) OpSet {
		var out OpSet
		for v := 0; v < len(a.Vars); v++ {
			if o.OpensVar(v) {
				out |= Open(perm[v])
			}
			if o.ClosesVar(v) {
				out |= Close(perm[v])
			}
		}
		return out
	}
	out := NewAutomaton(order...)
	out.Start = a.Start
	out.States = make([]State, len(a.States))
	for q, s := range a.States {
		for _, e := range s.Edges {
			out.States[q].Edges = append(out.States[q].Edges, Edge{mapOps(e.Ops), e.Class, e.To})
		}
		for _, f := range s.Finals {
			out.States[q].Finals = append(out.States[q].Finals, mapOps(f))
		}
	}
	return out, nil
}

// String renders the automaton for debugging.
func (a *Automaton) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "eVSA vars=%v start=%d\n", a.Vars, a.Start)
	for q, s := range a.States {
		for _, e := range s.Edges {
			fmt.Fprintf(&b, "  %d --[%v]%v--> %d\n", q, e.Ops, e.Class, e.To)
		}
		if len(s.Finals) > 0 {
			fs := make([]string, len(s.Finals))
			for i, f := range s.Finals {
				fs[i] = f.String()
			}
			sort.Strings(fs)
			fmt.Fprintf(&b, "  %d accepts with {%s}\n", q, strings.Join(fs, " | "))
		}
	}
	return b.String()
}
