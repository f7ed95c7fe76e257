package vsa

import (
	"encoding/binary"
	"slices"

	"repro/internal/lazydfa"
	"repro/internal/span"
)

// partial is an in-progress variable assignment during evaluation:
// two int32 slots per variable (open position, close position), 0 = unset.
// Positions are the paper's 1-based span endpoints.
type partial []int32

func (p partial) apply(ops OpSet, boundary int, numVars int) partial {
	if ops == 0 {
		return p
	}
	out := make(partial, len(p))
	copy(out, p)
	for v := 0; v < numVars; v++ {
		if ops.OpensVar(v) {
			out[2*v] = int32(boundary + 1)
		}
		if ops.ClosesVar(v) {
			out[2*v+1] = int32(boundary + 1)
		}
	}
	return out
}

// Eval computes the span relation ⟦a⟧(d) on the compiled evaluation core
// (see dfa.go and window.go). The bidirectional match-window localizer
// first bounds where matches can live: a forward byte-class DFA pass
// finds every boundary where a match can complete (subsuming the old
// EvalBool prescan — a document with no such boundary is rejected in the
// same single pass), and a backward pass over the reversed core automaton
// narrows each to the earliest boundary where that match can start. The
// tagged simulation — a walk of the tag DFA, on which each tuple has one
// run — then runs only inside the resulting [start, end) windows, seeded
// with the exact pre-core frontier and with positions kept in document
// coordinates, so results are byte-identical to whole-document
// evaluation. When localization does not apply (nullary automata, DFA
// state-bound overflow) Eval falls back to the whole-document path: DFA
// prescan plus one tagged simulation. An automaton that is not
// functional (hand-built only) evaluates as its functionalization
// (Section 4.2), which keeps exactly its valid ref-words. EvalReference,
// the map-based simulation all of this replaced, is the tests' oracle;
// fuzzing asserts they agree.
func (a *Automaton) Eval(doc string) *span.Relation {
	rel := span.NewRelation(a.Vars...)
	a.EvalAppend(doc, span.Span{Start: 1, End: len(doc) + 1}, rel, nil)
	rel.Dedupe()
	return rel
}

// EvalAppend is the accumulator form of Eval used by the
// split-evaluation executor: it evaluates a on doc — the same localized,
// compiled-core pipeline as Eval — and appends every result tuple,
// shifted by the span `by` (interpreting doc as the substring of an
// enclosing document that `by` selects, exactly Relation.ShiftAll's
// convention; pass [1, len(doc)+1⟩ for no shift), to rel. Tuple storage
// is carved from arena when it is non-nil, so a worker evaluating many
// segments into one per-worker accumulator performs no per-segment
// relation or per-tuple allocation.
//
// rel must have been created over a.Vars. Each tuple of this one
// evaluation is appended once, but rel is NOT deduplicated or sorted
// against tuples appended by earlier calls — callers that merge several
// segments must Dedupe once at the end, which also restores the
// canonical order Eval guarantees.
//
// It runs the Multi of one that a's localizer keeps — the one
// evaluation pass over a's own scan group (multi.go); a caller
// evaluating many documents from one goroutine keeps a MultiSession on
// a Multi instead.
func (a *Automaton) EvalAppend(doc string, by span.Span, rel *span.Relation, arena *span.TupleArena) {
	a.localizer().one.EvalAppend(doc, by, func(int) *span.Relation { return rel }, arena)
}

// ---------- the tag DFA ----------

// tagProg is the tag automaton the tagged simulation walks: the lazy
// determinization of a functional automaton over the extended alphabet
// (Proposition 4.4), on which one run exists per tuple. Its symbols are
// the distinct (byte class, op-set) pairs on the program's edges,
// numbered class by class: class c owns [symLo[c], symLo[c+1]). A state
// is a subset of automaton states, all of one status. dfa is nil past
// 256 symbols (lazydfa rows are indexed by a byte).
type tagProg struct {
	p      *evalProg
	status []Status
	symLo  []int32 // per class, plus an end: each class's first symbol
	ops    []OpSet // per symbol
	class  []uint8 // per symbol
	dfa    *lazydfa.DFA[tagFlags]
}

// tagFlags is a tag state's payload. emit: some member is an emit state
// (all variables closed, suffix-universal), so a cell reaching the state
// is complete and its tuple certain. fin: the final op-set completing
// the members' status, if some member has one (on a functional
// automaton, it is every member's only one).
type tagFlags struct {
	emit, hasFin bool
	fin          OpSet
}

// tag returns the tag program, building it on the first simulation. It
// is asked only of an automaton a scan group holds, which is functional.
func (a *Automaton) tag() *tagProg {
	a.tagOnce.Do(func() { a.tagVal = newTagProg(a.prog(), a.localizer().status) })
	return a.tagVal
}

func newTagProg(p *evalProg, status []Status) *tagProg {
	nc := p.nclasses
	t := &tagProg{p: p, status: status, symLo: make([]int32, nc+1), ops: make([]OpSet, 0, 2*nc), class: make([]uint8, 0, 2*nc)}
	for c := range nc {
		t.symLo[c] = int32(len(t.ops))
		for q := range p.nstates {
			for _, e := range p.succ[q*nc+c] {
				if !slices.Contains(t.ops[t.symLo[c]:], e.ops) {
					t.ops = append(t.ops, e.ops)
					t.class = append(t.class, uint8(c))
				}
			}
		}
	}
	t.symLo[nc] = int32(len(t.ops))
	if len(t.ops) <= 256 {
		t.dfa = lazydfa.New(lazydfa.Config[tagFlags]{
			Classes:   len(t.ops),
			States:    p.nstates,
			MaxStates: maxDFAStates,
			Succ:      func(q int32, sym uint8, emit func(int32)) { t.succ(q, int(sym), emit) },
			Payload:   t.flags,
		})
	}
	return t
}

// succ emits the successors of state q on symbol sym.
func (t *tagProg) succ(q int32, sym int, emit func(int32)) {
	for _, e := range t.p.succ[int(q)*t.p.nclasses+int(t.class[sym])] {
		if e.ops == t.ops[sym] {
			emit(e.to)
		}
	}
}

func (t *tagProg) flags(set []int32) tagFlags {
	var f tagFlags
	for _, q := range set {
		f.emit = f.emit || t.p.uni[q] && t.status[q] == AllClosed(t.p.nv)
		for _, fin := range t.p.finals[q] {
			f.hasFin, f.fin = true, fin
		}
	}
	return f
}

// ---------- the tagged simulation ----------

// evalRun bundles the per-evaluation state shared by every window of one
// Eval call; one struct keeps the per-window hot path free of closure
// allocations.
type evalRun struct {
	a        *Automaton
	p        *evalProg
	tag      *tagProg
	sc       *evalScratch
	rel      *span.Relation
	arena    *span.TupleArena // nil: tuples are individually allocated
	doc      string
	delta    int  // added to every emitted position (EvalAppend's shift)
	uncached bool // a window stepped uncached
}

// emit materializes one result tuple.
func (r *evalRun) emit(pt []int32) {
	nv := r.p.nv
	var t span.Tuple
	if r.arena != nil {
		t = r.arena.Tuple(nv)
	} else {
		t = make(span.Tuple, nv)
	}
	for v := 0; v < nv; v++ {
		t[v] = span.Span{Start: int(pt[2*v]) + r.delta, End: int(pt[2*v+1]) + r.delta}
	}
	r.rel.Tuples = append(r.rel.Tuples, t)
}

// whole is the whole-document rung of MultiSession.pass: the tagged
// simulation of the whole document from the start state.
func (r *evalRun) whole() {
	r.simulate(0, len(r.doc), []int32{int32(r.a.Start)}, true)
}

// simulate runs the tagged simulation over doc[lo:hi] from the sorted
// subset seed with the all-unset assignment; positions are
// document-absolute. Final operation sets apply only when the range
// ends at the document end (atDocEnd); an earlier window discards its
// residual frontier — runs completing beyond it are covered by the
// window of their own completion boundary. If the seed or the walk
// meets the tag DFA's state bound, or there is no DFA, the window
// reruns uncached, after dropping whatever the walk had emitted.
func (r *evalRun) simulate(lo, hi int, seed []int32, atDocEnd bool) {
	n0 := len(r.rel.Tuples)
	if d := r.tag.dfa; d != nil {
		if s := d.Intern(seed); s != dfaOverflow && r.window(lo, hi, s, atDocEnd) {
			return
		}
	}
	r.rel.Tuples = r.rel.Tuples[:n0]
	r.uncached = true
	r.windowUncached(lo, hi, seed, atDocEnd)
}

// window is simulate on the tag DFA; it returns false at the state
// bound. A frontier cell is [tag state, assignment…], appended with no
// lookup: one tag run exists per ref-word prefix, which the assignment
// spells out, so no two cells share one. A cell's tuple is emitted once:
// where it first reaches an emit state (the cell is dropped), or at the
// document end.
func (r *evalRun) window(lo, hi int, seed int32, atDocEnd bool) bool {
	t, sc, w := r.tag, r.sc, 1+2*r.p.nv
	st := t.dfa.Snapshot()
	cur, next := sc.front[0][:0], append(sc.front[1][:0], make([]int32, w)...)
	next[0] = seed
	if st[seed].Payload.emit { // nullary: the empty tuple
		r.emit(nil)
		next = next[:0]
	}
	doc := r.doc
	for pos := lo; pos < hi && len(next) > 0; pos++ {
		cur, next = next, cur[:0]
		c := r.p.classOf[doc[pos]]
		s0, s1 := t.symLo[c], t.symLo[c+1] // hoisted: next's writes could alias symLo
		for i := 0; i < len(cur); i += w {
			from := cur[i]
			for sym := s0; sym < s1; sym++ {
				to := st[from].Trans(uint8(sym))
				if to == dfaDead {
					continue
				}
				if to < 0 || int(to) >= len(st) { // rare: unresolved, stale or overflowed
					if to, st = t.dfa.Resolve(from, uint8(sym)); to == dfaOverflow {
						sc.front = [2][]int32{cur, next}
						return false
					} else if to == dfaDead {
						continue
					}
				}
				n := len(next)
				next = append(next, cur[i:i+w]...)
				next[n] = to
				applyOps(next[n+1:], t.ops[sym], pos)
				if st[to].Payload.emit {
					r.emit(next[n+1:])
					next = next[:n]
				}
			}
		}
	}
	for i := 0; atDocEnd && i < len(next); i += w {
		if f := st[next[i]].Payload; f.hasFin {
			applyOps(next[i+1:i+w], f.fin, len(doc))
			r.emit(next[i+1 : i+w])
		}
	}
	sc.front = [2][]int32{cur, next}
	return true
}

// windowUncached is simulate on the uncached step, the tagged
// counterpart of simBool: each cell carries its subset explicitly and
// steps by the grouping a DFA fill computes, unsorted and not interned.
func (r *evalRun) windowUncached(lo, hi int, seed []int32, atDocEnd bool) {
	t := r.tag
	type cell struct{ set, pt []int32 }
	cur := []cell{{seed, make([]int32, 2*r.p.nv)}}
	mark := make([]bool, r.p.nstates)
	for pos := lo; pos <= hi && len(cur) > 0; pos++ {
		var next []cell
		for _, x := range cur {
			f := t.flags(x.set)
			switch {
			case f.emit:
				r.emit(x.pt)
			case pos == hi:
				if atDocEnd && f.hasFin {
					applyOps(x.pt, f.fin, len(r.doc))
					r.emit(x.pt)
				}
			default:
				c := r.p.classOf[r.doc[pos]]
				for sym := t.symLo[c]; sym < t.symLo[c+1]; sym++ {
					var set []int32
					for _, q := range x.set {
						t.succ(q, int(sym), func(to int32) {
							if !mark[to] {
								mark[to] = true
								set = append(set, to)
							}
						})
					}
					for _, q := range set {
						mark[q] = false
					}
					if len(set) > 0 {
						pt := slices.Clone(x.pt)
						applyOps(pt, t.ops[sym], pos)
						next = append(next, cell{set, pt})
					}
				}
			}
		}
		cur = next
	}
}

// EvalReference is the retained reference implementation of Eval: a direct
// NFA simulation with a string-keyed frontier, kept verbatim from before
// the compiled evaluation core so that fuzzing and the benchmark suite can
// compare the two paths; nothing else calls it. Semantics are identical
// to Eval on a functional automaton.
func (a *Automaton) EvalReference(doc string) *span.Relation {
	nv := len(a.Vars)
	rel := span.NewRelation(a.Vars...)
	type cell struct {
		state int
		p     partial
	}
	keyBuf := make([]byte, 4+8*nv)
	cellKey := func(c cell) string {
		binary.LittleEndian.PutUint32(keyBuf, uint32(c.state))
		for i, v := range c.p {
			binary.LittleEndian.PutUint32(keyBuf[4+4*i:], uint32(v))
		}
		return string(keyBuf)
	}
	uni := a.prog().uni
	emitted := map[string]bool{}
	emitTuple := func(p partial) {
		t := make(span.Tuple, nv)
		for v := 0; v < nv; v++ {
			t[v] = span.Span{Start: int(p[2*v]), End: int(p[2*v+1])}
		}
		k := t.Key()
		if !emitted[k] {
			emitted[k] = true
			rel.Tuples = append(rel.Tuples, t)
		}
	}
	complete := func(p partial) bool {
		for _, v := range p {
			if v == 0 {
				return false
			}
		}
		return true
	}
	cur := map[string]cell{}
	place := func(c cell, dst map[string]cell) {
		if uni[c.state] && complete(c.p) {
			emitTuple(c.p)
			return
		}
		dst[cellKey(c)] = c
	}
	place(cell{a.Start, make(partial, 2*nv)}, cur)
	emit := func(c cell, boundary int) {
		for _, f := range a.States[c.state].Finals {
			emitTuple(c.p.apply(f, boundary, nv))
		}
	}
	for pos := 0; pos < len(doc); pos++ {
		b := doc[pos]
		next := make(map[string]cell, len(cur))
		for _, c := range cur {
			for _, e := range a.States[c.state].Edges {
				if !e.Class.Has(b) {
					continue
				}
				place(cell{e.To, c.p.apply(e.Ops, pos, nv)}, next)
			}
		}
		cur = next
		if len(cur) == 0 {
			break
		}
	}
	for _, c := range cur {
		emit(c, len(doc))
	}
	rel.Dedupe()
	return rel
}

// EvalBoolReference is the retained reference implementation of EvalBool:
// a plain map-based state-set simulation, kept for differential testing
// against the lazy-DFA path.
func (a *Automaton) EvalBoolReference(doc string) bool {
	cur := map[int]bool{a.Start: true}
	for pos := 0; pos < len(doc); pos++ {
		b := doc[pos]
		next := map[int]bool{}
		for q := range cur {
			for _, e := range a.States[q].Edges {
				if e.Class.Has(b) {
					next[e.To] = true
				}
			}
		}
		cur = next
		if len(cur) == 0 {
			return false
		}
	}
	for q := range cur {
		if len(a.States[q].Finals) > 0 {
			return true
		}
	}
	return false
}
