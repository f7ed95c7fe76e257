package vsa

import (
	"math/bits"
	"slices"
	"strings"
	"sync"

	"repro/internal/alphabet"
	"repro/internal/automata"
	"repro/internal/lazydfa"
)

// This file implements the compiled evaluation core: a byte→equivalence-
// class table per automaton, per-(state, class) transition lists, and the
// Boolean walk of the lazily determinized (subset-construction) DFA whose
// transition cache is shared across calls — including concurrent calls
// from the parallel worker pools, which evaluate the same split-spanner
// automaton on many segments at once. The reference NFA simulations this
// replaces are retained as EvalReference/EvalBoolReference in eval.go and
// cross-checked by fuzzing.
//
// Determinization itself lives in internal/lazydfa. An automaton has one
// forward DFA, its localizer's one-member scan group (window.go): EvalBool
// walks it, as Eval's forward scan does. The other three clients of the
// core are the backward narrowing DFA (reverse.go), the tag DFA the
// tagged simulation walks (eval.go) and core's compiled splitter scanner.

// progEdge is one compiled transition: perform ops at the current
// boundary, then move to state to (the consumed byte is implied by the
// (state, class) bucket the edge lives in).
type progEdge struct {
	ops OpSet
	to  int32
}

// evalProg is the compiled, immutable evaluation program of an automaton:
// built once under Automaton.progOnce, read-only afterwards, and hence
// safe for unsynchronized concurrent use.
type evalProg struct {
	nv       int // number of variables
	nclasses int // number of byte equivalence classes
	nstates  int // number of automaton states
	classOf  [256]uint8
	reps     []byte // a representative byte per class
	// succ[q*nclasses+c] lists the transitions of state q on any byte of
	// class c. The per-byte Class.Has test of the interpreted loop is gone:
	// membership was resolved for the whole class at build time.
	succ     [][]progEdge
	finals   [][]OpSet
	hasFinal []bool
	// uni[q]: every suffix is accepted from q with no further variable
	// operation (see suffixUniversality). A completed assignment entering
	// such a state is emitted and dropped at once, which keeps evaluation
	// linear for the common "prefix · extraction · Σ*" shape.
	uni []bool
}

// Sentinel DFA transition values, aliased from internal/lazydfa. State 0
// is the canonical dead state (empty subset); state 1 is the start state
// (the first subset interned after construction). dfaOverflow marks a
// transition whose target subset was not cached because the DFA hit
// maxDFAStates; evaluation falls back to direct subset simulation from
// there (sound, just slower) instead of letting an adversarial automaton
// materialize 2^n states.
const (
	dfaDead           = lazydfa.Dead
	dfaStart    int32 = 1
	dfaUnknown        = lazydfa.Unknown
	dfaOverflow       = lazydfa.Overflow
)

// maxDFAStates bounds every lazily built DFA in this package. Real
// extractors determinize to a handful of subsets per byte class; the
// bound only matters for adversarial inputs.
const maxDFAStates = lazydfa.DefaultMaxStates

// prog returns the compiled evaluation program, building it on first use.
// Building freezes the automaton: see AddEdge/AddFinal.
func (a *Automaton) prog() *evalProg {
	a.progOnce.Do(func() {
		a.frozen.Store(true)
		a.progVal = a.buildProg()
	})
	return a.progVal
}

// Prepare forces construction of the evaluation caches (the compiled
// program with its suffix-universality, both match-window DFAs —
// the forward end-detection scan and the reversed start-narrowing
// program — and the literal prefilter's factor extraction) so that the
// first evaluation does not pay for them; the tag DFA is left to the
// first simulation, which many plans never run. It freezes the automaton: any
// later AddEdge/AddFinal panics. The engine calls Prepare when compiling
// a plan, so plans served from the cache carry warmed evaluators and the
// memoized prefilter factors.
func (a *Automaton) Prepare() {
	a.prog()
	a.localizer()
	a.prefilter()
}

// SuffixUniversal exposes the per-state suffix-universality vector of the
// compiled program to other packages (core's compiled splitter scanner
// uses it as its committed-emission test: a close into a suffix-universal
// state is in the output regardless of what the rest of the stream
// brings). The analysis is sound but bounded — it may report false for a
// state that is in fact universal, never the reverse — and callers must
// treat the returned slice as read-only. Calling it freezes the automaton.
func (a *Automaton) SuffixUniversal() []bool { return a.prog().uni }

func (a *Automaton) buildProg() *evalProg {
	classOf, reps := alphabet.ClassTable(a.Classes())
	nc := len(reps)
	n := len(a.States)
	p := &evalProg{
		nv:       len(a.Vars),
		nclasses: nc,
		nstates:  n,
		classOf:  classOf,
		reps:     reps,
		succ:     make([][]progEdge, n*nc),
		finals:   make([][]OpSet, n),
		hasFinal: make([]bool, n),
	}
	edges := make([]progEdge, 0, a.NumEdges())
	for q, st := range a.States {
		p.finals[q] = st.Finals
		p.hasFinal[q] = len(st.Finals) > 0
		for c, rep := range reps {
			from := len(edges)
			for _, e := range st.Edges {
				if e.Class.Has(rep) {
					edges = append(edges, progEdge{e.Ops, int32(e.To)})
				}
			}
			p.succ[q*nc+c] = edges[from:]
		}
	}
	// Every (state, class) list now lies in the final backing array.
	for i, es := range p.succ {
		p.succ[i], edges = edges[:len(es):len(es)], edges[len(es):]
	}
	p.uni = p.suffixUniversality()
	return p
}

// maxUniSets bounds the subsets one state's universality walk may reach;
// past it the state is reported not universal, which is sound (just
// slower to evaluate).
const maxUniSets = 256

// suffixUniversality decides, per state q, whether every suffix is
// accepted from q with no further variable operation. It runs on the
// zero-operation sub-NFA — byte classes as symbols, final where a state
// accepts with the empty final set — through one automata.Subsets table
// shared by every state's walk: q is universal iff every subset reached
// breadth-first from {q} is final and steps to a non-empty subset on every
// class.
func (p *evalProg) suffixUniversality() []bool {
	nc, n := p.nclasses, p.nstates
	nfa := &automata.NFA{NumSymbols: nc, Final: make([]bool, n), Adj: make([][]automata.Edge, n)}
	edges := make([]automata.Edge, 0, len(p.succ)) // every state's edges, back to back
	for q := 0; q < n; q++ {
		nfa.Final[q] = slices.Contains(p.finals[q], 0)
		from := len(edges)
		for c := 0; c < nc; c++ {
			for _, e := range p.succ[q*nc+c] {
				if e.ops == 0 {
					edges = append(edges, automata.Edge{Sym: c, To: int(e.to)})
				}
			}
		}
		nfa.Adj[q] = edges[from:len(edges):len(edges)]
	}
	t := automata.NewSubsets(nfa)
	uni := make([]bool, n)
	var queue, seen []int32 // seen[id] == q+1: subset id is on q's walk
	visit := func(id, stamp int32) {
		if grow := t.Len() - len(seen); grow > 0 {
			seen = append(seen, make([]int32, grow)...)
		}
		if seen[id] != stamp {
			seen[id] = stamp
			queue = append(queue, id)
		}
	}
	for q := range uni {
		if !nfa.Final[q] {
			continue
		}
		stamp := int32(q + 1)
		queue = queue[:0]
		visit(t.Intern([]int32{int32(q)}), stamp)
		uni[q] = true
		for i := 0; uni[q] && i < len(queue); i++ {
			uni[q] = t.Final(queue[i])
			for c := 0; uni[q] && c < nc; c++ {
				to := t.Step(queue[i], c)
				visit(to, stamp)
				uni[q] = len(t.Set(to)) > 0 && len(queue) <= maxUniSets
			}
		}
	}
	return uni
}

// EvalBool reports whether the Boolean semantics of a accepts the
// document, i.e. whether ⟦a⟧(d) is nonempty (the automaton is functional,
// so an accepting run exists iff some tuple is produced). It walks the
// forward DFA of a's scan group — one byte-indexed lookup per position, on
// a transition cache shared with every other call — and answers yes at the
// first boundary whose subset holds an emit state: all variables closed
// and every suffix accepted. At the end of the document a final-bearing
// state decides. If the DFA outgrows its state bound the remainder of the
// document runs on a direct subset simulation.
func (a *Automaton) EvalBool(doc string) bool {
	if pf := a.prefilter().info; pf.Factor != "" && !strings.Contains(doc, pf.Factor) {
		// The factor is mandatory in every accepted document (see
		// prefilter.go), so its absence decides rejection without a scan.
		return false
	}
	g := a.localizer().group
	st := g.dfa.Snapshot()
	cur := dfaStart
	var gate lazydfa.SkipGate[scanFlags]
	if !g.noSkip {
		gate.Bind(g.dfa, g.skipSet, lazydfa.StringIndex(doc))
	}
	for i := 0; i < len(doc); i++ {
		c := g.classOf[doc[i]]
		t := st[cur].Trans(c)
		if t <= dfaDead || int(t) >= len(st) { // rare: unresolved, stale, overflowed or dead
			if t, st = g.dfa.Resolve(cur, c); t == dfaDead {
				return false
			}
			if t == dfaOverflow {
				// No emit state has been reached, so the subset is the full
				// automaton's: the emit-truncated edges were never taken.
				// simBool reuses its input as scratch: hand it a copy.
				return g.progs[0].simBool(append([]int32(nil), st[cur].Set...), doc[i:])
			}
		}
		if !g.noSkip {
			// The walk has been confined to a couple of states for a while:
			// jump to the next byte that can break out (prefilter.go). No
			// skipped boundary holds an emit state.
			if s := gate.Step(st, cur, t); s != nil {
				if j, _ := gate.Jump(s, i+1, len(doc)); j > i+1 {
					st = g.dfa.Snapshot() // the set's build may have interned its states
					t = s.Sync(doc[j-1])
					i = j - 1
				}
			}
		}
		if st[t].Payload.end != 0 {
			return true
		}
		cur = t
	}
	return st[cur].Payload.fin != 0
}

// simBool is the uncached subset simulation, used past the DFA state
// bound. Sparse sets, no per-byte allocation.
func (p *evalProg) simBool(set []int32, doc string) bool {
	cur := set
	next := make([]int32, 0, len(set))
	mark := make([]bool, p.nstates)
	for i := 0; i < len(doc); i++ {
		c := int(p.classOf[doc[i]])
		next = next[:0]
		for _, q := range cur {
			for _, e := range p.succ[int(q)*p.nclasses+c] {
				if !mark[e.to] {
					mark[e.to] = true
					next = append(next, e.to)
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
		if p.hasFinal[q] {
			return true
		}
	}
	return false
}

// ---------- Eval: the tagged simulation's scratch ----------

// evalScratch holds the tagged simulation's frontier buffers (see
// evalRun.window). Eval is called concurrently by the worker pools on a
// shared automaton, so scratch is pooled rather than cached on the
// automaton; after the first few calls the per-byte loop performs no
// allocation. A window alternates between the two frontiers, each a
// flat run of cells [tag state, assignment…].
type evalScratch struct {
	front [2][]int32
}

var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// applyOps mutates pt in place: every operation of ops is performed at the
// given boundary (positions are the paper's 1-based endpoints).
func applyOps(pt []int32, ops OpSet, boundary int) {
	for o := uint64(ops); o != 0; o &= o - 1 {
		// bit 2v = open v (slot 2v), bit 2v+1 = close v (slot 2v+1): the
		// bit index is the slot index.
		pt[bits.TrailingZeros64(o)] = int32(boundary + 1)
	}
}
