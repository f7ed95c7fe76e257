package vsa

// This file implements multi-query shared evaluation: N compiled
// spanners ("members") evaluated so that ONE forward pass over a
// document drives the match-window localization of every member at once
// (DESIGN.md, "Multi-query shared evaluation"). The pass itself is not
// here: a Multi partitions its localizable members into scan groups
// (window.go) of up to maxGroupMembers and runs the same forward,
// narrow, seedAt and simulate an automaton's own Session runs over its
// group of one. What this file adds is what only a set of queries
// needs: grouping, per-member admission, demultiplexing into one
// relation per member, and its own metrics.
//
// Per-member mandatory-factor prefilters become an admission bitmap:
// a member whose factor is absent from the document is excluded from
// the group's start subset (its relation is provably empty — the factor
// is mandatory in every accepted document), while the remaining members
// scan at full strength. Each distinct admission mask gets its own
// interned start state, cached per group; all members admitted is the
// group's dfaStart and needs no lookup.
//
// Fallbacks preserve byte-identity in every corner and only ever step
// down: members without a localizer are evaluated standalone per
// document; a group-DFA overflow falls every admitted member back to
// its standalone EvalAppend — its own one-member group, and below that
// the whole-document simulation; a single member's backward-narrowing
// overflow falls only that member back. Standalone evaluation never
// calls into a Multi. Differential tests hold the construction to
// "byte-identical per query to Eval and to EvalReference".

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/span"
)

// MultiMetrics collects fused-pass statistics across every evaluation
// of a Multi (see Multi.SetMetrics). All fields are cumulative,
// lock-free counters.
type MultiMetrics struct {
	// FusedPasses counts fused forward scans (one per admitted group per
	// document); FusedBytes the document bytes they covered — each such
	// byte answered every admitted member of the group at once.
	FusedPasses obs.Counter
	FusedBytes  obs.Counter
	// FusedSkippedBytes counts bytes the fused scan's trigger-byte skip
	// loop jumped over (the literal prefilter's mid-scan mechanism).
	FusedSkippedBytes obs.Counter
	// DemuxTuples counts result tuples demultiplexed into per-member
	// relations (solo and fallback members included).
	DemuxTuples obs.Counter
	// AdmissionSkips counts (member, document) pairs the per-member
	// mandatory-factor admission bitmap excluded from the fused pass.
	AdmissionSkips obs.Counter
	// MemberFallbacks counts member evaluations that ran standalone:
	// members without a localizer, fused-DFA overflows, and per-member
	// narrowing overflows.
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
	groups   []*multiGroup
	solo     []int // members without a localizer: evaluated standalone

	metrics atomic.Pointer[MultiMetrics]
}

// multiGroup is one scan group of a Multi plus what only a query set
// needs around it: which member sits in which slot, the admission
// factors, and the start states of partial admission masks.
type multiGroup struct {
	*scanGroup
	members []int    // indices into Multi.members, by slot
	factors []string // admission factor per slot ("" = always admitted)

	fullMask uint64 // every slot admitted: the group's dfaStart
	mu       sync.Mutex
	starts   map[uint64]int32 // partial admission mask → interned start state
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
	var fused []int
	for i, a := range m.members {
		a.Prepare()
		if a.localizer().ok {
			fused = append(fused, i)
		} else {
			// No forward scan program to fuse: the member evaluates
			// standalone (its own EvalAppend fallback path).
			m.solo = append(m.solo, i)
		}
	}
	for lo := 0; lo < len(fused); lo += maxGroupMembers {
		hi := min(lo+maxGroupMembers, len(fused))
		m.groups = append(m.groups, m.buildGroup(fused[lo:hi]))
	}
}

func (m *Multi) buildGroup(idx []int) *multiGroup {
	g := &multiGroup{members: append([]int(nil), idx...)}
	var autos []*Automaton
	var locs []*localizer
	for _, mi := range idx {
		a := m.members[mi]
		autos = append(autos, a)
		locs = append(locs, a.localizer())
		g.factors = append(g.factors, a.Prefilter().Factor)
	}
	g.scanGroup = newScanGroup(autos, locs)
	g.fullMask = ^uint64(0) >> (64 - uint(len(idx)))
	g.starts = make(map[uint64]int32)
	return g
}

// startFor returns the interned start state of an admission mask,
// caching one per distinct partial mask; the full mask is the state the
// group interned first. Intern takes the DFA's write lock and is safe at
// any time (unlike Seed); Overflow at the state bound is returned to the
// caller, which falls the group back.
func (g *multiGroup) startFor(mask uint64) int32 {
	if mask == g.fullMask {
		return dfaStart
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if s, ok := g.starts[mask]; ok {
		return s
	}
	s := g.dfa.Intern(g.startSet(mask))
	if s != dfaOverflow {
		g.starts[mask] = s
	}
	return s
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

// MultiSession is Session's counterpart for a Multi: what one goroutine
// keeps while it evaluates the query set on many documents — the same
// pooled scratch a Session holds, under the same rules (not safe for
// concurrent use, no lock held between calls, Close when done).
type MultiSession struct {
	m *Multi
	sessionScratch
}

// NewSession prepares m and returns a MultiSession on it, by value so
// that a one-shot use stays on the caller's stack.
func (m *Multi) NewSession() MultiSession {
	m.Prepare()
	return MultiSession{m: m}
}

// EvalAppend evaluates the session's query set on doc under
// Multi.EvalAppend's contract.
func (s *MultiSession) EvalAppend(doc string, by span.Span, rel func(i int) *span.Relation, arena *span.TupleArena) {
	m := s.m
	mm := m.metrics.Load()
	for _, g := range m.groups {
		s.evalGroup(g, doc, by, rel, arena, mm)
	}
	for _, mi := range m.solo {
		m.memberFallback(mi, doc, by, rel, arena, mm)
	}
}

// memberFallback evaluates one member standalone — its own EvalAppend
// pipeline, byte-identical to the fused path by construction.
func (m *Multi) memberFallback(mi int, doc string, by span.Span, rel func(int) *span.Relation, arena *span.TupleArena, mm *MultiMetrics) {
	r := rel(mi)
	n0 := len(r.Tuples)
	m.members[mi].EvalAppend(doc, by, r, arena)
	if mm != nil {
		mm.MemberFallbacks.Inc()
		mm.DemuxTuples.Add(uint64(len(r.Tuples) - n0))
	}
}

func (s *MultiSession) evalGroup(g *multiGroup, doc string, by span.Span, rel func(int) *span.Relation, arena *span.TupleArena, mm *MultiMetrics) {
	m := s.m
	// Per-member admission bitmap: a member whose mandatory factor is
	// absent has a provably empty relation and leaves the start subset;
	// the remaining members scan at full strength.
	var admit uint64
	for slot, f := range g.factors {
		if f == "" || strings.Contains(doc, f) {
			admit |= 1 << slot
		} else if mm != nil {
			mm.AdmissionSkips.Inc()
		}
	}
	if admit == 0 {
		return
	}
	ws := s.scan()
	if start := g.startFor(admit); start == dfaOverflow || !g.forward(doc, start, ws) {
		// Group DFA overflow (or an uncacheable admission start state):
		// every admitted member falls back to its standalone pipeline.
		// Members the admission bitmap rejected stay empty — the factor
		// gate's soundness does not depend on the fused pass.
		for slot, mi := range g.members {
			if admit&(1<<slot) != 0 {
				m.memberFallback(mi, doc, by, rel, arena, mm)
			}
		}
		return
	}
	if mm != nil {
		mm.FusedPasses.Inc()
		mm.FusedBytes.Add(uint64(len(doc)))
		if ws.skipped > 0 {
			mm.FusedSkippedBytes.Add(uint64(ws.skipped))
		}
	}
	for slot, mi := range g.members {
		if len(ws.ends[slot]) == 0 && ws.finals&(1<<slot) == 0 {
			// Not admitted, or no boundary where a match of this member
			// can complete: its relation is empty; the simulation never
			// runs.
			continue
		}
		a := g.autos[slot]
		r := rel(mi)
		if len(r.Vars) != len(a.Vars) {
			panic("vsa: Multi.EvalAppend relation arity does not match member arity")
		}
		if !g.narrow(slot, doc, ws) {
			// Backward-narrowing overflow for this member alone: its
			// standalone EvalAppend takes the same fallback internally.
			m.memberFallback(mi, doc, by, rel, arena, mm)
			continue
		}
		n0 := len(r.Tuples)
		run := s.run(a, g.progs[slot], r, doc, by.Start-1, arena)
		g.simulate(slot, doc, ws, &run)
		if mm != nil {
			mm.DemuxTuples.Add(uint64(len(r.Tuples) - n0))
		}
	}
}
