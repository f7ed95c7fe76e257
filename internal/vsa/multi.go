package vsa

// This file implements multi-query shared evaluation: N compiled
// spanners ("members") evaluated so that ONE forward pass over a
// document drives the match-window localization of every member at once
// (DESIGN.md, "Multi-query shared evaluation"), and the one evaluation
// pass, MultiSession.pass, that every evaluation runs — an automaton
// evaluated alone is a Multi of one (Automaton.EvalAppend). The scan
// itself is not here: a Multi partitions its localizable members into
// scan groups (window.go) of up to maxGroupMembers and runs forward,
// narrow, seedAt and simulate over each. A group that would hold one
// member is that member's own group, the one its localizer built: a
// Multi of one builds no scan group or lazy DFA of its own. What this
// file adds is what only a set of queries needs: grouping and
// demultiplexing into one relation per member. A session counts what its
// passes did into the caller's Record (metrics.go), if it was given one.
//
// The ladder preserves byte-identity in every corner and only ever steps
// down. A group of many that overflows its DFA hands every admitted
// member to the member's own group of one. A member whose backward
// narrowing overflows, from any group, and a group of one whose member
// overflows or cannot be localized at all (nullary automata) take the
// EvalBool prescan plus one whole-document simulation: the member's own
// group would narrow on the same reverse DFA and overflow again. A member that is not functional runs as its
// functionalization, the automaton its localizer's group holds.
// Differential tests hold the construction to "byte-identical per query
// to Eval and to EvalReference".

import (
	"strings"
	"sync"
	"time"

	"repro/internal/span"
)

// Multi is a set of compiled spanners fused for one-pass multi-query
// evaluation. Build one with NewMulti, then Prepare (or let the first
// evaluation prepare lazily); afterwards it is safe for concurrent use,
// like the member automata themselves. Duplicate members are legal and
// evaluated independently.
type Multi struct {
	members []*Automaton

	prepOnce sync.Once
	// groups cover every member exactly once and are what an evaluation
	// runs; own holds each member's group of one, where a group of many
	// hands down a member it cannot finish.
	groups []*multiGroup
	own    []*multiGroup
}

// multiGroup is a scan group as one Multi runs it: which member sits in
// which slot.
type multiGroup struct {
	*scanGroup
	members []int // indices into Multi.members, by slot
}

// NewMulti returns a Multi over the given member spanners. The slice is
// copied; the automata are shared (and frozen on first evaluation).
func NewMulti(members ...*Automaton) *Multi {
	if len(members) == 0 {
		panic("vsa: NewMulti requires at least one member")
	}
	return &Multi{members: append([]*Automaton(nil), members...)}
}

// Len returns the number of member queries.
func (m *Multi) Len() int { return len(m.members) }

// Member returns member query i's automaton.
func (m *Multi) Member(i int) *Automaton { return m.members[i] }

// Prepare builds the fused machinery (grouping, combined class table,
// fused lazy DFA start states) and Prepares every member, so the first
// evaluation does not pay for construction. Idempotent and safe for
// concurrent use.
func (m *Multi) Prepare() {
	m.prepOnce.Do(m.build)
}

func (m *Multi) build() {
	m.own = make([]*multiGroup, len(m.members))
	var fused []int
	for i, a := range m.members {
		a.Prepare()
		loc := a.localizer()
		m.own[i] = &multiGroup{scanGroup: loc.group, members: []int{i}}
		if loc.ok {
			fused = append(fused, i)
		} else {
			// No forward scan program to fuse: the member's own group
			// takes it straight to the whole-document rung.
			m.groups = append(m.groups, m.own[i])
		}
	}
	for lo := 0; lo < len(fused); lo += maxGroupMembers {
		idx := fused[lo:min(lo+maxGroupMembers, len(fused))]
		if len(idx) == 1 {
			m.groups = append(m.groups, m.own[idx[0]])
			continue
		}
		var autos []*Automaton
		var locs []*localizer
		for _, mi := range idx {
			autos = append(autos, m.own[mi].autos[0])
			locs = append(locs, m.own[mi].locs[0])
		}
		m.groups = append(m.groups, &multiGroup{scanGroup: newScanGroup(autos, locs), members: idx})
	}
}

// Eval runs every member query over doc in (at most) one fused pass per
// group and returns one relation per member, in member order, each
// sorted and deduplicated — byte-identical to calling Member(i).Eval
// separately. It counts nothing; MultiSession.Eval is Eval into a record.
func (m *Multi) Eval(doc string) []*span.Relation {
	s := m.NewSession(nil)
	rels := s.Eval(doc)
	s.Close()
	return rels
}

// EvalAppend is the accumulator form of Eval, mirroring
// Automaton.EvalAppend's contract per member: member i's tuples,
// shifted by `by`, are appended to rel(i) (which must have been created
// over Member(i).Vars), with storage carved from arena when non-nil.
// rel is invoked lazily — a member whose result is empty may never have
// its relation requested. Like EvalAppend, per-member results are
// duplicate-suppressed within this one evaluation but callers merging
// several segments must Dedupe per member at the end.
//
// It is the one-shot use of a MultiSession; a caller evaluating many
// documents from one goroutine keeps a MultiSession instead.
func (m *Multi) EvalAppend(doc string, by span.Span, rel func(i int) *span.Relation, arena *span.TupleArena) {
	s := m.NewSession(nil)
	s.EvalAppend(doc, by, rel, arena)
	s.Close()
}

// MultiSession is what one goroutine keeps while it evaluates a Multi
// on many documents (the split executor's workers, one segment after
// another): the pooled scratch, taken from its pool on first need and
// handed back by Close, so that nothing but the evaluation itself is
// paid per document. A MultiSession is not safe for concurrent use; any
// number of them may share one Multi.
type MultiSession struct {
	m *Multi
	// rec counts the passes; mrec is rec on a Multi of two or more
	// members, the only place the multi-query stats count.
	rec, mrec *Record
	ws        *scanScratch // nil until a document reaches a forward scan
	sc        *evalScratch // nil until a document needs the tagged simulation
}

// NewSession prepares m and returns a MultiSession on it, by value so
// that a one-shot use stays on the caller's stack, counting into rec
// (which only the session's goroutine may touch; nil counts nothing and
// reads no clock). Close it when done.
func (m *Multi) NewSession(rec *Record) MultiSession {
	m.Prepare()
	s := MultiSession{m: m, rec: rec}
	if len(m.members) > 1 {
		s.mrec = rec
	}
	return s
}

// Close returns the session's scratch to the pools.
func (s *MultiSession) Close() {
	if s.ws != nil {
		scanPool.Put(s.ws)
		s.ws = nil
	}
	if s.sc != nil {
		scratchPool.Put(s.sc)
		s.sc = nil
	}
}

// scan returns the session's forward-scan scratch, acquiring it on
// first use.
func (s *MultiSession) scan() *scanScratch {
	if s.ws == nil {
		s.ws = scanPool.Get().(*scanScratch)
	}
	return s.ws
}

// run starts the tagged simulation of one document by a on the
// session's evalScratch, acquiring it on first use. It returns the run
// by value so that the per-segment hot path keeps it on the stack.
func (s *MultiSession) run(a *Automaton, rel *span.Relation, doc string, delta int, arena *span.TupleArena) evalRun {
	if s.sc == nil {
		s.sc = scratchPool.Get().(*evalScratch)
	}
	return evalRun{a: a, p: a.prog(), tag: a.tag(), sc: s.sc, rel: rel, arena: arena, doc: doc, delta: delta}
}

// Eval is Multi.Eval on the session.
func (s *MultiSession) Eval(doc string) []*span.Relation {
	members := s.m.members
	rels := make([]*span.Relation, len(members))
	relOf := func(i int) *span.Relation {
		if rels[i] == nil {
			rels[i] = span.NewRelation(members[i].Vars...)
		}
		return rels[i]
	}
	s.EvalAppend(doc, span.Span{Start: 1, End: len(doc) + 1}, relOf, nil)
	for i, r := range rels {
		if r == nil {
			rels[i] = span.NewRelation(members[i].Vars...)
		} else {
			r.Dedupe()
		}
	}
	return rels
}

// EvalAppend evaluates the session's query set on doc under
// Multi.EvalAppend's contract: one pass per group.
func (s *MultiSession) EvalAppend(doc string, by span.Span, rel func(i int) *span.Relation, arena *span.TupleArena) {
	for _, g := range s.m.groups {
		s.pass(g, doc, by, rel, arena)
	}
}

// pass evaluates group g's members on doc. Every evaluation runs it,
// and its ladder has one exit: admission, one forward scan over the
// group, then per member with a candidate match end the backward
// narrowing and the windowed simulation. Members the scan leaves
// unfinished step down — from a group of many each to its own group of
// one, from a group of one to the EvalBool prescan plus one
// whole-document simulation (whole). A member whose narrowing
// overflowed takes that last rung from any group.
//
// A pass over a group of one counts the record's evaluation fields; a
// session on a Multi of several members counts its multi-query fields.
func (s *MultiSession) pass(g *multiGroup, doc string, by span.Span, rel func(int) *span.Relation, arena *span.TupleArena) {
	// em is nil for groups of many, sessions without a record and
	// sub-window-scale documents (see MetricsMinDocBytes): on those,
	// counting is a nil check and a length compare. fm is s.mrec on a
	// group of many.
	var em *Record
	var t0 time.Time
	mm := s.mrec
	fm := mm
	if len(g.members) == 1 {
		fm = nil
		if mm != nil {
			mm[MemberFallbacks]++
		}
		if s.rec != nil && len(doc) >= MetricsMinDocBytes {
			em = s.rec
			em[Evals]++
			em[DocBytes] += uint64(len(doc))
			em[PrefilterDisabled+Stat(g.pf[0].Reason)]++
			t0 = time.Now()
		}
	}
	// Admission: a member whose mandatory factor (see prefilter.go) is
	// absent has an empty relation and leaves the start subset — one
	// vectorized substring search instead of its share of the scan.
	var admit uint64
	for slot, pf := range g.pf {
		if pf.Factor == "" || strings.Contains(doc, pf.Factor) {
			admit |= 1 << slot
		} else if fm != nil {
			fm[AdmissionSkips]++
		}
	}
	if admit == 0 {
		if em != nil {
			em[PrefilterSkippedBytes] += uint64(len(doc))
			em[Localize] += uint64(time.Since(t0))
			em[EmptyDocs]++
		}
		return
	}
	if em != nil {
		em[PrefilterCandidates]++
	}
	down := admit      // the members this scan leaves to the next rung
	var toWhole uint64 // the members whose narrowing overflowed
	// Every member of a group of many localizes; a group of one scans
	// unless its member cannot be localized at all.
	if g.locs[0].ok {
		ws := s.scan()
		if start := g.startFor(admit); start != dfaOverflow && g.forward(doc, start, ws) {
			down = 0
			if fm != nil {
				fm[FusedPasses]++
				fm[FusedBytes] += uint64(len(doc))
				fm[FusedSkippedBytes] += uint64(ws.skipped)
				if ws.stoodDown {
					fm[FusedStandDowns]++
				}
			}
			if em != nil {
				em[PrefilterSkippedBytes] += uint64(ws.skipped)
				if ws.stoodDown {
					em[PrefilterStandDowns]++
				}
			}
			for slot, mi := range g.members {
				if len(ws.ends[slot]) == 0 && ws.finals&(1<<slot) == 0 {
					// Not admitted, or no boundary where a match of this
					// member can complete: its relation is empty, and the
					// simulation machinery is never touched.
					if em != nil {
						em[Localize] += uint64(time.Since(t0))
						em[EmptyDocs]++
					}
					continue
				}
				if !g.narrow(slot, doc, ws) {
					toWhole |= 1 << slot
					continue
				}
				if em != nil {
					now := time.Now()
					em[Localize] += uint64(now.Sub(t0))
					t0 = now
					em[Windows] += uint64(len(ws.windows))
					var wb uint64
					for _, w := range ws.windows {
						wb += uint64(w.hi - w.lo)
					}
					em[WindowBytes] += wb
				}
				r := memberRel(rel, mi, g.autos[slot])
				n0 := len(r.Tuples)
				run := s.run(g.autos[slot], r, doc, by.Start-1, arena)
				for _, wd := range ws.windows {
					run.simulate(wd.lo, wd.hi, g.seedAt(slot, doc, wd.lo, ws), wd.hi == len(doc))
				}
				if em != nil {
					em[Sim] += uint64(time.Since(t0))
					if run.uncached {
						em[Fallbacks]++
					}
				}
				if mm != nil {
					mm[DemuxTuples] += uint64(len(r.Tuples) - n0)
				}
			}
		}
	}
	if down|toWhole == 0 {
		return
	}
	if len(g.members) > 1 {
		// The scratch is free again: each unfinished member gets its own
		// group's pass. Members the admission bitmap rejected stay empty —
		// the factor gate's soundness does not depend on the fused pass.
		// A member whose narrowing overflowed goes straight to the
		// whole-document rung: its own group would find the same ends and
		// narrow them on the same reverse DFA, which overflows again.
		for slot, mi := range g.members {
			switch {
			case down&(1<<slot) != 0:
				s.pass(s.m.own[mi], doc, by, rel, arena)
			case toWhole&(1<<slot) != 0:
				if mm != nil {
					mm[MemberFallbacks]++
				}
				s.whole(g.autos[slot], mi, doc, by, rel, arena)
			}
		}
		return
	}
	if em != nil {
		// Whatever was spent attempting localization is still
		// localization time; the rest of the call is simulation.
		now := time.Now()
		em[Localize] += uint64(now.Sub(t0))
		t0 = now
		em[Fallbacks]++
	}
	s.whole(g.autos[0], g.members[0], doc, by, rel, arena)
	if em != nil {
		em[Sim] += uint64(time.Since(t0))
	}
}

// whole is the ladder's last rung for member mi, automaton a: the
// EvalBool prescan, then one tagged simulation of the whole document.
func (s *MultiSession) whole(a *Automaton, mi int, doc string, by span.Span, rel func(int) *span.Relation, arena *span.TupleArena) {
	// ⟦a⟧(d) = ∅ iff no accepting run exists; the DFA decides that
	// without touching the assignment machinery.
	if !a.EvalBool(doc) {
		return
	}
	r := memberRel(rel, mi, a)
	n0 := len(r.Tuples)
	run := s.run(a, r, doc, by.Start-1, arena)
	run.whole()
	if s.mrec != nil {
		s.mrec[DemuxTuples] += uint64(len(r.Tuples) - n0)
	}
}

// memberRel returns member mi's relation, which must be over a's
// variables.
func memberRel(rel func(int) *span.Relation, mi int, a *Automaton) *span.Relation {
	r := rel(mi)
	if len(r.Vars) != len(a.Vars) {
		panic("vsa: EvalAppend relation arity does not match member arity")
	}
	return r
}
