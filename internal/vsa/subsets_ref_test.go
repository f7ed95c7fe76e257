package vsa

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/alphabet"
	"repro/internal/automata"
)

// This file keeps the two string-keyed subset constructions that
// Determinize and the suffix-universality analysis ran on before both
// moved onto automata.Subsets, as the oracle FuzzSubsetConstructionsVsReference
// (subsets_fuzz_test.go) holds the rewrites to: the same universality
// vector, the same number of deterministic states and the same
// ErrTooLarge boundary. They are exported to that external test package,
// which compiles formulas (regexformula imports vsa), together with the
// randomAutomaton generator.

// RandomAutomaton is randomAutomaton (dfa_test.go).
var RandomAutomaton = randomAutomaton

// DeterminizeReference is Determinize as it was: subsets keyed by a
// formatted string, edges grouped by operation set per subset and split
// into that group's own atoms.
func (a *Automaton) DeterminizeReference(limit int) (*Automaton, error) {
	if limit <= 0 {
		limit = automata.DefaultLimit
	}
	out := NewAutomaton(a.Vars...)
	key := func(set []int) string {
		parts := make([]string, len(set))
		for i, q := range set {
			parts[i] = strconv.Itoa(q)
		}
		return strings.Join(parts, ",")
	}
	id := map[string]int{}
	var sets [][]int
	intern := func(set []int) (int, error) {
		k := key(set)
		if i, ok := id[k]; ok {
			return i, nil
		}
		if len(id) >= limit {
			return 0, automata.ErrTooLarge
		}
		var i int
		if len(id) == 0 {
			i = 0 // the start state created by NewAutomaton
		} else {
			i = out.AddState()
		}
		id[k] = i
		sets = append(sets, set)
		return i, nil
	}
	if _, err := intern([]int{a.Start}); err != nil {
		return nil, err
	}
	for i := 0; i < len(sets); i++ {
		set := sets[i]
		// Finals: union over members.
		for _, q := range set {
			for _, f := range a.States[q].Finals {
				out.AddFinal(i, f)
			}
		}
		// Group edges by operation set, then split byte classes into atoms.
		byOps := map[OpSet][]Edge{}
		var opsList []OpSet
		for _, q := range set {
			for _, e := range a.States[q].Edges {
				if _, ok := byOps[e.Ops]; !ok {
					opsList = append(opsList, e.Ops)
				}
				byOps[e.Ops] = append(byOps[e.Ops], e)
			}
		}
		sort.Slice(opsList, func(x, y int) bool { return opsList[x] < opsList[y] })
		for _, ops := range opsList {
			es := byOps[ops]
			classes := make([]alphabet.Class, len(es))
			for j, e := range es {
				classes[j] = e.Class
			}
			for _, atom := range alphabet.Atoms(classes) {
				targets := map[int]bool{}
				for _, e := range es {
					if e.Class.ContainsClass(atom) {
						targets[e.To] = true
					}
				}
				if len(targets) == 0 {
					continue
				}
				tset := make([]int, 0, len(targets))
				for q := range targets {
					tset = append(tset, q)
				}
				sort.Ints(tset)
				to, err := intern(tset)
				if err != nil {
					return nil, err
				}
				out.AddEdge(i, ops, atom, to)
			}
		}
	}
	return out, nil
}

// SuffixUniversalityReference is the suffix-universality analysis as it
// was: per state a breadth-first walk of string-keyed subsets of the
// zero-operation sub-NFA, each expanded over its own atoms.
func (a *Automaton) SuffixUniversalityReference() []bool {
	// The zero-ops sub-NFA: per state, edges with no variable operations;
	// finals are states accepting with the empty final set.
	finals := make([]bool, len(a.States))
	for q, st := range a.States {
		for _, f := range st.Finals {
			if f == 0 {
				finals[q] = true
			}
		}
	}
	key := func(set []int) string {
		parts := make([]string, len(set))
		for i, q := range set {
			parts[i] = strconv.Itoa(q)
		}
		return strings.Join(parts, ",")
	}
	type expansion struct {
		good  bool
		succs [][]int
	}
	cache := map[string]*expansion{}
	expand := func(set []int) *expansion {
		k := key(set)
		if e, ok := cache[k]; ok {
			return e
		}
		e := &expansion{}
		var classes []alphabet.Class
		var all alphabet.Class
		hasFinal := false
		for _, q := range set {
			if finals[q] {
				hasFinal = true
			}
			for _, ed := range a.States[q].Edges {
				if ed.Ops == 0 {
					classes = append(classes, ed.Class)
					all = all.Union(ed.Class)
				}
			}
		}
		// Locally good: accepting here, and able to consume any byte.
		e.good = hasFinal && all == alphabet.Any
		if e.good {
			for _, atom := range alphabet.Atoms(classes) {
				succ := map[int]bool{}
				for _, q := range set {
					for _, ed := range a.States[q].Edges {
						if ed.Ops == 0 && ed.Class.ContainsClass(atom) {
							succ[ed.To] = true
						}
					}
				}
				next := make([]int, 0, len(succ))
				for q := range succ {
					next = append(next, q)
				}
				sort.Ints(next)
				e.succs = append(e.succs, next)
			}
		}
		cache[k] = e
		return e
	}
	const maxSets = 256 // exploration bound per state; exceeding it is sound (just slower)
	out := make([]bool, len(a.States))
	for q := range a.States {
		seen := map[string]bool{}
		queue := [][]int{{q}}
		seen[key(queue[0])] = true
		universal := true
		for len(queue) > 0 && universal {
			set := queue[0]
			queue = queue[1:]
			e := expand(set)
			if !e.good {
				universal = false
				break
			}
			for _, succ := range e.succs {
				k := key(succ)
				if !seen[k] {
					if len(seen) >= maxSets {
						universal = false
						break
					}
					seen[k] = true
					queue = append(queue, succ)
				}
			}
		}
		out[q] = universal
	}
	return out
}
