package vsa

// This file builds the backward start-narrowing program of the match-
// window localizer (window.go): the automaton's core — everything between
// the first variable operation of a run and its emission — is stripped of
// operations, reversed with automata.Reverse over the byte-class alphabet
// of the compiled evaluation program, and determinized by the same
// internal/lazydfa engine as the forward machinery in dfa.go, so both
// directions share one construction idiom and one publication protocol.
// This client's payload is the per-class core-start flag vector of the
// subset, and it is the one client that uses seed injection: candidate
// match ends merge emit-state (or final-bearing) seeds into an already-
// walking frontier through DFA.Inject.

import (
	"repro/internal/automata"
	"repro/internal/lazydfa"
)

// revPayload is the backward DFA's per-state payload: start[c] reports
// that some subset member has an incoming forward core-entry edge on
// class c (an edge with operations leaving a status-0 state), i.e. a
// match core can begin at the boundary the backward walk is about to
// cross.
type revPayload struct {
	start []bool
}

// revProg is the compiled backward program. succ holds the reversed core
// adjacency: succ[v*nclasses+c] lists the states u with a kept forward
// edge u --c--> v, so following it walks the document right to left.
//
// Kept edges exclude two loop families that would otherwise keep the
// backward frontier alive across the whole document:
//
//   - post-emit edges (forward source is an emit state): evaluation
//     emits and drops a run when it enters an emit state, so nothing
//     after that boundary belongs to the match;
//   - prefix edges (operation-free edges between status-0 states): they
//     precede the match core, whose discovery is the whole point.
//
// The boundary between prefix and core — an edge with operations leaving
// a status-0 state — is recorded as a startPred flag on the target
// instead of a frontier member: reaching the target backwards over that
// class means a match core can begin at the boundary just crossed.
type revProg struct {
	succ      [][]int32
	startPred []bool
	// seedEnd is the registered seed of the emit states: the backward
	// frontier seeds at a candidate match end. seedFin is the seed of the
	// status≠0 states with final operation sets: injected at the
	// document-end boundary.
	seedEnd int
	seedFin int
	// finSeedHasStart reports a status-0 state with final operation sets:
	// a match core can live entirely in the final boundary's operations,
	// so the document end itself is a core start.
	finSeedHasStart bool
	dfa             *lazydfa.DFA[revPayload]
}

func buildRevProg(p *evalProg, a *Automaton, st []Status, end []bool) *revProg {
	nc, n := p.nclasses, p.nstates
	r := &revProg{
		succ:      make([][]int32, n*nc),
		startPred: make([]bool, n*nc),
	}
	// The kept forward core edges as an NFA over the byte-class alphabet;
	// automata.Reverse flips them into the backward adjacency. Starts and
	// finals document the intended reading (a core runs from the prefix
	// boundary to an emit state); only the reversed adjacency is compiled.
	fwd := automata.New(nc)
	for q := 0; q < n; q++ {
		fwd.AddState(end[q])
	}
	fwd.AddStart(a.Start)
	for q := 0; q < n; q++ {
		if end[q] {
			continue // post-emit
		}
		for c := 0; c < nc; c++ {
			for _, e := range p.succ[q*nc+c] {
				if st[q] == 0 {
					if e.ops != 0 {
						r.startPred[int(e.to)*nc+c] = true
					}
					continue // prefix edge, or core entry (flagged above)
				}
				fwd.AddEdge(q, c, int(e.to))
			}
		}
	}
	fwd.DedupeEdges()
	rev := automata.Reverse(fwd)
	for v, es := range rev.Adj {
		for _, e := range es {
			r.succ[v*nc+e.Sym] = append(r.succ[v*nc+e.Sym], int32(e.To))
		}
	}
	var endSeed, finSeed []int32
	for q := 0; q < n; q++ {
		switch {
		case end[q]:
			endSeed = append(endSeed, int32(q))
		case p.hasFinal[q] && st[q] == 0:
			r.finSeedHasStart = true
		case p.hasFinal[q]:
			finSeed = append(finSeed, int32(q))
		}
	}
	r.dfa = lazydfa.New(lazydfa.Config[revPayload]{
		Classes:   nc,
		States:    n,
		MaxStates: maxDFAStates,
		Succ: func(q int32, c uint8, emit func(int32)) {
			for _, u := range r.succ[int(q)*nc+int(c)] {
				emit(u)
			}
		},
		Payload: func(set []int32) revPayload {
			start := make([]bool, nc)
			for c := 0; c < nc; c++ {
				for _, v := range set {
					if r.startPred[int(v)*nc+c] {
						start[c] = true
						break
					}
				}
			}
			return revPayload{start: start}
		},
	})
	r.seedEnd = r.dfa.Seed(endSeed)
	r.seedFin = r.dfa.Seed(finSeed)
	return r
}
