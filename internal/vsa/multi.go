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
// file adds is what only a set of queries needs: grouping,
// demultiplexing into one relation per member, and the metrics.
//
// The ladder preserves byte-identity in every corner and only ever steps
// down. A group of many that overflows its DFA hands every admitted
// member to the member's own group of one; a member whose backward
// narrowing overflows goes there alone. A group of one whose member
// overflows, cannot be narrowed, or cannot be localized at all (nullary
// automata) takes the EvalBool prescan plus one whole-document
// simulation. A member that is not functional runs as its
// functionalization, the automaton its localizer's group holds.
// Differential tests hold the construction to "byte-identical per query
// to Eval and to EvalReference".

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/span"
)

// MultiMetrics collects fused-pass statistics across every evaluation
// of a Multi (see Multi.SetMetrics). All fields are cumulative,
// lock-free counters.
type MultiMetrics struct {
	// FusedPasses counts fused forward scans (one per admitted group of
	// many per document); FusedBytes the document bytes they covered —
	// each such byte answered every admitted member of the group at once.
	FusedPasses obs.Counter
	FusedBytes  obs.Counter
	// FusedSkippedBytes counts bytes the fused scan's trigger-byte skip
	// loop jumped over (the literal prefilter's mid-scan mechanism);
	// FusedStandDowns counts fused passes whose skip gate stood down
	// because its jumps gained less than stepping.
	FusedSkippedBytes obs.Counter
	FusedStandDowns   obs.Counter
	// DemuxTuples counts result tuples demultiplexed into per-member
	// relations (members evaluated on their own group included).
	DemuxTuples obs.Counter
	// AdmissionSkips counts (member, document) pairs the per-member
	// mandatory-factor admission bitmap excluded from the fused pass.
	AdmissionSkips obs.Counter
	// MemberFallbacks counts member evaluations on the member's own group
	// of one: members no group of many holds (no localizer, or a lone
	// member), and members a group of many handed down on a fused-DFA or
	// narrowing overflow.
	MemberFallbacks obs.Counter
}

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

	metrics atomic.Pointer[MultiMetrics]
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

// SetMetrics attaches a fused-pass metrics collector (nil detaches).
// Like Automaton.SetEvalMetrics it is not part of the frozen compiled
// state and may be set at any time.
func (m *Multi) SetMetrics(mm *MultiMetrics) { m.metrics.Store(mm) }

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
// separately.
func (m *Multi) Eval(doc string) []*span.Relation {
	rels := make([]*span.Relation, len(m.members))
	relOf := func(i int) *span.Relation {
		if rels[i] == nil {
			rels[i] = span.NewRelation(m.members[i].Vars...)
		}
		return rels[i]
	}
	m.EvalAppend(doc, span.Span{Start: 1, End: len(doc) + 1}, relOf, nil)
	for i, r := range rels {
		if r == nil {
			rels[i] = span.NewRelation(m.members[i].Vars...)
		} else {
			r.Dedupe()
		}
	}
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
	s := m.NewSession()
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
	m  *Multi
	ws *scanScratch // nil until a document reaches a forward scan
	sc *evalScratch // nil until a document needs the tagged simulation
}

// NewSession prepares m and returns a MultiSession on it, by value so
// that a one-shot use stays on the caller's stack. Close it when done.
func (m *Multi) NewSession() MultiSession {
	m.Prepare()
	return MultiSession{m: m}
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

// EvalAppend evaluates the session's query set on doc under
// Multi.EvalAppend's contract: one pass per group.
func (s *MultiSession) EvalAppend(doc string, by span.Span, rel func(i int) *span.Relation, arena *span.TupleArena) {
	mm := s.m.metrics.Load()
	for _, g := range s.m.groups {
		s.pass(g, doc, by, rel, arena, mm)
	}
}

// pass evaluates group g's members on doc. Every evaluation runs it,
// and its ladder has one exit: admission, one forward scan over the
// group, then per member with a candidate match end the backward
// narrowing and the windowed simulation. Members the scan leaves
// unfinished step down — from a group of many each to its own group of
// one, from a group of one to the EvalBool prescan plus one
// whole-document simulation.
//
// A group of one records its member's EvalMetrics, exactly as the
// member's evaluation alone does; a group of many records the fused-pass
// MultiMetrics.
func (s *MultiSession) pass(g *multiGroup, doc string, by span.Span, rel func(int) *span.Relation, arena *span.TupleArena, mm *MultiMetrics) {
	// em is nil for groups of many, uninstrumented automata and
	// sub-window-scale documents (see MetricsMinDocBytes): on those,
	// instrumentation is one atomic pointer load and a length compare.
	// fm is mm on a group of many.
	var em *EvalMetrics
	var t0 time.Time
	fm := mm
	if len(g.members) == 1 {
		fm = nil
		if mm != nil {
			mm.MemberFallbacks.Inc()
		}
		if em = g.autos[0].metricsFor(doc); em != nil {
			em.Evals.Inc()
			em.DocBytes.Add(uint64(len(doc)))
			em.PrefilterDisabled[g.pf[0].Reason].Inc()
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
			fm.AdmissionSkips.Inc()
		}
	}
	if admit == 0 {
		if em != nil {
			em.PrefilterSkippedBytes.Add(uint64(len(doc)))
			em.LocalizeNS.AddDuration(time.Since(t0))
			em.EmptyDocs.Inc()
		}
		return
	}
	if em != nil {
		em.PrefilterCandidates.Inc()
	}
	down := admit // the members this scan leaves to the next rung
	// Every member of a group of many localizes; a group of one scans
	// unless its member cannot be localized at all.
	if g.locs[0].ok {
		ws := s.scan()
		if start := g.startFor(admit); start != dfaOverflow && g.forward(doc, start, ws) {
			down = 0
			if fm != nil {
				fm.FusedPasses.Inc()
				fm.FusedBytes.Add(uint64(len(doc)))
				fm.FusedSkippedBytes.Add(uint64(ws.skipped))
				if ws.stoodDown {
					fm.FusedStandDowns.Inc()
				}
			}
			if em != nil {
				em.PrefilterSkippedBytes.Add(uint64(ws.skipped))
				if ws.stoodDown {
					em.PrefilterStandDowns.Inc()
				}
			}
			for slot, mi := range g.members {
				if len(ws.ends[slot]) == 0 && ws.finals&(1<<slot) == 0 {
					// Not admitted, or no boundary where a match of this
					// member can complete: its relation is empty, and the
					// simulation machinery is never touched.
					if em != nil {
						em.LocalizeNS.AddDuration(time.Since(t0))
						em.EmptyDocs.Inc()
					}
					continue
				}
				if !g.narrow(slot, doc, ws) {
					down |= 1 << slot
					continue
				}
				if em != nil {
					now := time.Now()
					em.LocalizeNS.AddDuration(now.Sub(t0))
					t0 = now
					em.Windows.Add(uint64(len(ws.windows)))
					var wb uint64
					for _, w := range ws.windows {
						wb += uint64(w.hi - w.lo)
					}
					em.WindowBytes.Add(wb)
				}
				r := memberRel(rel, mi, g.autos[slot])
				n0 := len(r.Tuples)
				run := s.run(g.autos[slot], r, doc, by.Start-1, arena)
				for _, wd := range ws.windows {
					run.simulate(wd.lo, wd.hi, g.seedAt(slot, doc, wd.lo, ws), wd.hi == len(doc))
				}
				if em != nil {
					em.SimNS.AddDuration(time.Since(t0))
					if run.uncached {
						em.Fallbacks.Inc()
					}
				}
				if mm != nil {
					mm.DemuxTuples.Add(uint64(len(r.Tuples) - n0))
				}
			}
		}
	}
	if down == 0 {
		return
	}
	if len(g.members) > 1 {
		// The scratch is free again: each unfinished member gets its own
		// group's pass. Members the admission bitmap rejected stay empty —
		// the factor gate's soundness does not depend on the fused pass.
		for slot, mi := range g.members {
			if down&(1<<slot) != 0 {
				s.pass(s.m.own[mi], doc, by, rel, arena, mm)
			}
		}
		return
	}
	if em != nil {
		// Whatever was spent attempting localization is still
		// localization time; the rest of the call is simulation.
		now := time.Now()
		em.LocalizeNS.AddDuration(now.Sub(t0))
		t0 = now
		em.Fallbacks.Inc()
	}
	// ⟦a⟧(d) = ∅ iff no accepting run exists; the DFA decides that
	// without touching the assignment machinery.
	if a := g.autos[0]; a.EvalBool(doc) {
		r := memberRel(rel, g.members[0], a)
		n0 := len(r.Tuples)
		run := s.run(a, r, doc, by.Start-1, arena)
		run.whole()
		if mm != nil {
			mm.DemuxTuples.Add(uint64(len(r.Tuples) - n0))
		}
	}
	if em != nil {
		em.SimNS.AddDuration(time.Since(t0))
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
