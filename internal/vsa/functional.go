package vsa

import "repro/internal/automata"

// IsFunctional reports whether every accepting run of the raw automaton
// generates a valid ref-word (Section 4.2): each variable is opened
// exactly once and closed exactly once afterwards. A run is invalid as
// soon as any single variable is misused, so the test decomposes per
// variable: for each v, search for an accepting run that opens v twice,
// closes it while not open, or finishes with v unopened or unclosed. Each
// per-variable search is a reachability question over (state, status∪bad)
// pairs, giving O(|Vars| · |A|) time overall.
func (r *Raw) IsFunctional() bool {
	for v := range r.Vars {
		if !r.variableAlwaysValid(v) {
			return false
		}
	}
	return true
}

func (r *Raw) variableAlwaysValid(v int) bool {
	const bad = 3 // status code for "already misused"
	// A configuration is (state, status of v: unseen, open, closed or bad).
	var x automata.Explorer
	x.Visit(int32(r.Start), statusUnseen)
	open, close := Open(v), Close(v)
	for id := int32(0); int(id) < x.Len(); id++ {
		c := x.Config(id)
		q, cst := c[0], c[1]
		if r.Final[q] && cst != statusClosed {
			// Accepting with v unopened, still open, or misused: some
			// ref-word in R(r) is invalid for v.
			return false
		}
		for _, e := range r.Adj[q] {
			st := cst
			if e.Kind == LabelOp && e.Op == open {
				if st == statusUnseen {
					st = statusOpen
				} else {
					st = bad
				}
			} else if e.Kind == LabelOp && e.Op == close {
				if st == statusOpen {
					st = statusClosed
				} else {
					st = bad
				}
			}
			if e.Kind == LabelSymbol && e.Class.IsEmpty() {
				continue
			}
			x.Visit(int32(e.To), st)
		}
	}
	return true
}
