package vsa

import (
	"encoding/binary"

	"repro/internal/automata"
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
// expensive tagged frontier simulation — byte-class-indexed transition
// lists, frontier cells interned in a resettable automata.SetTable — then
// runs only inside the resulting [start, end) windows, seeded with the
// exact pre-core frontier and with positions kept in document
// coordinates, so results are byte-identical to whole-document
// evaluation. When localization does not apply (nullary automata, no
// per-state status, DFA state-bound overflow) Eval falls back to the
// whole-document path: DFA prescan plus full tagged simulation.
// EvalReference retains the map-based simulation all of this replaced;
// fuzzing asserts the two agree.
func (a *Automaton) Eval(doc string) *span.Relation {
	rel := span.NewRelation(a.Vars...)
	a.EvalAppend(doc, span.Span{Start: 1, End: len(doc) + 1}, rel, nil)
	rel.Dedupe()
	return rel
}

// EvalAppend is the accumulator form of Eval used by the work-stealing
// split-evaluation executor: it evaluates a on doc — the same localized,
// compiled-core pipeline as Eval — and appends every result tuple,
// shifted by the span `by` (interpreting doc as the substring of an
// enclosing document that `by` selects, exactly Relation.ShiftAll's
// convention; pass [1, len(doc)+1⟩ for no shift), to rel. Tuple storage
// is carved from arena when it is non-nil, so a worker evaluating many
// segments into one per-worker accumulator performs no per-segment
// relation or per-tuple allocation.
//
// rel must have been created over a.Vars. Duplicate tuples arising
// within this one evaluation are suppressed, but rel is NOT deduplicated
// or sorted against tuples appended by earlier calls — callers that
// merge several segments must Dedupe once at the end, which also
// restores the canonical order Eval guarantees.
//
// It runs the Multi of one that a's localizer keeps — the one
// evaluation pass over a's own scan group (multi.go); a caller
// evaluating many documents from one goroutine keeps a MultiSession on
// a Multi instead.
func (a *Automaton) EvalAppend(doc string, by span.Span, rel *span.Relation, arena *span.TupleArena) {
	a.localizer().one.EvalAppend(doc, by, func(int) *span.Relation { return rel }, arena)
}

// evalRun bundles the per-evaluation state shared by every window of one
// Eval call: the frozen program, the scratch, the result relation and
// the cross-window tuple dedup. Bundling it into one struct keeps the
// per-window hot path free of closure allocations.
type evalRun struct {
	a      *Automaton
	p      *evalProg
	sc     *evalScratch
	rel    *span.Relation
	arena  *span.TupleArena // nil: tuples are individually allocated
	doc    string
	stride int
	delta  int // added to every emitted position (EvalAppend's shift)
}

// newEvalRun starts one document's evaluation on sc, sizing its fixed
// buffers for p. It returns the run by value so that the per-segment hot
// path keeps it on the stack.
func newEvalRun(a *Automaton, p *evalProg, sc *evalScratch, rel *span.Relation, doc string, delta int, arena *span.TupleArena) evalRun {
	stride := 2 * p.nv
	if cap(sc.cell) < stride+1 {
		sc.cell = make([]int32, stride+1)
	}
	sc.emitted.Reset(0)
	return evalRun{a: a, p: p, sc: sc, rel: rel, arena: arena, doc: doc, stride: stride, delta: delta}
}

// emit deduplicates and materializes one result tuple. Windows are
// disjoint, but two runs of the same tuple may complete in different
// windows; the emitted table catches repeats before they allocate.
func (r *evalRun) emit(pt []int32) {
	if _, added := r.sc.emitted.Intern(pt); !added {
		return
	}
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

// place adds a frontier cell [state, assignment…], emitting immediately
// (and dropping the cell) when the assignment is complete in a
// suffix-universal state — the emit states of the localizer's forward
// scan.
func (r *evalRun) place(next *automata.SetTable, cell []int32) {
	if pt := cell[1:]; r.p.uni[cell[0]] && completePartial(pt) {
		r.emit(pt)
		return
	}
	next.Intern(cell)
}

// window runs the tagged frontier simulation over doc[lo:hi]. The
// frontier is seeded at boundary lo with the given states (nil means the
// automaton's start state) and the all-unset assignment; positions are
// document-absolute throughout. Final operation sets apply only when the
// range ends at the document end (atDocEnd); an earlier window simply
// discards its residual frontier — runs completing beyond the window are
// covered by the window of their own completion boundary.
func (r *evalRun) window(lo, hi int, seed []int32, atDocEnd bool) {
	p, sc := r.p, r.sc
	cell := sc.cell[:r.stride+1]
	pt := cell[1:]
	clear(cell)
	cur, next := &sc.cells[0], &sc.cells[1]
	if seed == nil {
		seed = []int32{int32(r.a.Start)}
	}
	next.Reset(len(seed))
	for _, q := range seed {
		cell[0] = q
		r.place(next, cell)
	}
	cur, next = next, cur

	nc := p.nclasses
	doc := r.doc
	for pos := lo; pos < hi && cur.Len() > 0; pos++ {
		c := int(p.classOf[doc[pos]])
		next.Reset(cur.Len())
		for id := range int32(cur.Len()) {
			src := cur.Set(id)
			for _, e := range p.succ[int(src[0])*nc+c] {
				cell[0] = e.to
				for i := range pt { // a loop: a call to memmove costs more
					pt[i] = src[i+1]
				}
				applyOps(pt, e.ops, pos)
				r.place(next, cell)
			}
		}
		cur, next = next, cur
	}
	if !atDocEnd {
		return
	}
	for id := range int32(cur.Len()) {
		src := cur.Set(id)
		for _, f := range p.finals[src[0]] {
			copy(pt, src[1:])
			applyOps(pt, f, len(doc))
			r.emit(pt)
		}
	}
}

// EvalReference is the retained reference implementation of Eval: a direct
// NFA simulation with a string-keyed frontier, kept verbatim from before
// the compiled evaluation core so that fuzzing and the benchmark suite can
// compare the two paths. Semantics are identical to Eval.
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
