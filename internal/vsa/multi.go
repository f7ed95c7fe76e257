package vsa

// This file implements multi-query shared evaluation: N compiled
// spanners ("members") fused so that ONE forward pass over a document
// drives the match-window localization of every member at once
// (DESIGN.md, "Multi-query shared evaluation"). The construction is the
// disjoint union of the members' forward end-detection scan automata
// (window.go) — the spanner-algebra union construction specialized to
// the Boolean scan layer, with per-member namespacing done by state
// offsets instead of tag renaming:
//
//   - Fused NFA states are member scan states shifted by a per-member
//     base offset, so member i's state q becomes base[i]+q and no two
//     members' states collide. There are no cross-member edges, so the
//     reachable fused subset at every boundary is exactly the union of
//     the per-member scan subsets — the projection [base[i], base[i]+nᵢ)
//     of a fused subset IS member i's subset, which is what makes every
//     per-member artifact below provably identical to a standalone Eval.
//   - The fused lazy DFA's payload is a pair of per-member bitmaps
//     (multiFlags): bit i of end/fin says member i's subset contains an
//     emit-truncated end state / a final-bearing state. Demultiplexing
//     is reading those bitmaps: the single pass yields each member its
//     own candidate match-end runs and its own finals-at-end flag,
//     byte-identical to the member's own scanProg.forward.
//   - Variable tags never enter the fused automaton. The tagged frontier
//     simulation (the only part that touches OpSets) runs per member,
//     on the member's own compiled program, inside the member's own
//     narrowed windows — so MaxVars bounds each member, not the batch,
//     and no tag renaming or collision handling is needed.
//
// Per-member mandatory-factor prefilters become an admission bitmap:
// a member whose factor is absent from the document is excluded from
// the fused start subset (its relation is provably empty — the factor
// is mandatory in every accepted document), while the remaining members
// scan at full strength. Each distinct admission mask gets its own
// interned fused start state, cached per group.
//
// Fallbacks preserve byte-identity in every corner: members without a
// localizer are evaluated standalone per document; a fused-DFA overflow
// falls every member of the group back to its standalone EvalAppend;
// a single member's backward-narrowing overflow falls only that member
// back. Differential fuzzing (parallel.FuzzMultiVsSequential) holds the
// whole construction to "byte-identical per query to Eval".

import (
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/alphabet"
	"repro/internal/lazydfa"
	"repro/internal/obs"
	"repro/internal/span"
)

// maxGroupMembers bounds one fused group: admission masks, end bitmaps
// and finals bitmaps are uint64s indexed by the member's slot within
// its group. Larger batches are split into several groups, each with
// its own fused DFA.
const maxGroupMembers = 64

// maxMultiDFAStates bounds one group's fused lazy DFA. The fused subset
// space is (at worst) the product of the members' subset spaces, so the
// bound scales with the group size — overflowing it is not an error,
// just a fallback to per-member evaluation.
const maxMultiDFAStates = 1 << 16

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

// multiFlags is the fused scan DFA's per-state payload: per-member-slot
// bitmaps saying whose subset contains an emit-truncated end state
// (end) and whose contains a final-bearing state (fin).
type multiFlags struct {
	end uint64
	fin uint64
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

// multiGroup is one fused unit of up to maxGroupMembers localizable
// members: the combined byte-class table, the disjoint-union scan NFA
// and its lazy DFA, and the per-admission-mask start states.
type multiGroup struct {
	members []int        // indices into Multi.members, by slot
	autos   []*Automaton // aliases, by slot
	progs   []*evalProg
	locs    []*localizer
	factors []string // admission factor per slot ("" = always admitted)

	base     []int32 // fused-state offset per slot
	nstates  int     // total fused NFA states
	nclasses int     // combined byte classes
	classOf  [256]uint8
	classMap [][]uint8 // per slot: combined class → member class
	owner    []uint8   // fused NFA state → slot
	local    []int32   // fused NFA state → member-local state

	fullMask uint64
	noSkip   bool

	dfa   *lazydfa.DFA[multiFlags]
	skips lazydfa.SkipCache

	mu     sync.Mutex
	starts map[uint64]int32 // admission mask → interned fused start state
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
	var classes []alphabet.Class
	for _, mi := range idx {
		a := m.members[mi]
		g.autos = append(g.autos, a)
		g.progs = append(g.progs, a.prog())
		g.locs = append(g.locs, a.localizer())
		g.factors = append(g.factors, a.Prefilter().Factor)
		if a.prefDisabled {
			// One member opting out of the prefilter disables the fused
			// skip loop for the whole group: skips never change results,
			// but DisablePrefilter promises a fully stepped scan and the
			// differential tests hold the fused pass to it.
			g.noSkip = true
		}
		classes = append(classes, a.Classes()...)
	}
	var reps []byte
	g.classOf, reps = alphabet.ClassTable(classes)
	g.nclasses = len(reps)
	for _, p := range g.progs {
		// The combined partition refines every member's: all bytes of a
		// combined class share the member class of any representative.
		cm := make([]uint8, g.nclasses)
		for c, rep := range reps {
			cm[c] = p.classOf[rep]
		}
		g.classMap = append(g.classMap, cm)
		g.base = append(g.base, int32(g.nstates))
		g.nstates += p.nstates
	}
	g.owner = make([]uint8, g.nstates)
	g.local = make([]int32, g.nstates)
	for s := range g.progs {
		for q := 0; q < g.progs[s].nstates; q++ {
			g.owner[int(g.base[s])+q] = uint8(s)
			g.local[int(g.base[s])+q] = int32(q)
		}
	}
	g.fullMask = ^uint64(0) >> (64 - uint(len(idx)))
	maxStates := maxDFAStates * len(idx)
	if maxStates > maxMultiDFAStates {
		maxStates = maxMultiDFAStates
	}
	g.dfa = lazydfa.New(lazydfa.Config[multiFlags]{
		Classes:   g.nclasses,
		States:    g.nstates,
		MaxStates: maxStates,
		Succ: func(q int32, c uint8, emit func(int32)) {
			s := g.owner[q]
			scan := g.locs[s].scan
			mc := g.classMap[s][c]
			for _, to := range scan.succ[int(g.local[q])*scan.nclasses+int(mc)] {
				emit(g.base[s] + to)
			}
		},
		Payload: func(set []int32) multiFlags {
			var f multiFlags
			for _, q := range set {
				s := g.owner[q]
				lq := g.local[q]
				if g.locs[s].scan.end[lq] {
					f.end |= 1 << s
				}
				if g.locs[s].scan.hasFinal[lq] {
					f.fin |= 1 << s
				}
			}
			return f
		},
	})
	g.starts = make(map[uint64]int32)
	g.starts[g.fullMask] = g.dfa.Intern(g.startSet(g.fullMask))
	return g
}

// startSet builds the fused start subset of an admission mask: the
// members' start states, shifted by their bases (ascending, hence
// already sorted and duplicate-free as Intern requires).
func (g *multiGroup) startSet(mask uint64) []int32 {
	set := make([]int32, 0, len(g.autos))
	for s := range g.autos {
		if mask&(1<<s) != 0 {
			set = append(set, g.base[s]+int32(g.autos[s].Start))
		}
	}
	return set
}

// startFor returns the interned fused start state of an admission mask,
// caching one per distinct mask. Intern takes the DFA's write lock and
// is safe at any time (unlike Seed); Overflow at the state bound is
// returned to the caller, which falls the group back.
func (g *multiGroup) startFor(mask uint64) int32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if s, ok := g.starts[mask]; ok {
		return s
	}
	s := g.dfa.Intern(g.startSet(mask))
	if s != lazydfa.Overflow {
		g.starts[mask] = s
	}
	return s
}

// multiScratch holds the per-evaluation buffers of one fused pass:
// fused-DFA checkpoints, per-slot candidate end runs, and the seed
// projection buffer. Pooled, like windowScratch.
type multiScratch struct {
	checkpoints []int32
	ends        [][]int32 // per slot: candidate match ends as [lo, hi) runs
	finals      uint64    // fin bitmap at the document end
	skipped     int       // bytes the fused skip loop jumped over
	seed        []int32
}

var multiScratchPool = sync.Pool{New: func() any { return new(multiScratch) }}

// forward is the fused mirror of scanProg.forward: one fused-DFA lookup
// per byte from the admission mask's start state, recording checkpoints
// every checkpointStride boundaries, per-member candidate-end runs from
// the payload's end bitmap, and the finals bitmap at the document end.
// Returns false on a fused-DFA state-bound overflow.
func (g *multiGroup) forward(doc string, start int32, ms *multiScratch) bool {
	const rlockChunk = 1 << 12
	w := g.dfa.Walk()
	cur := start
	ms.checkpoints = append(ms.checkpoints[:0], start)
	for s := range ms.ends {
		ms.ends[s] = ms.ends[s][:0]
	}
	ms.finals = 0
	ms.skipped = 0
	var gate lazydfa.SkipGate
	if !g.noSkip {
		gate.Init(&g.skips)
		gate.Bind(func(q int32) *lazydfa.SkipSet { return g.skipSet(&w, q) },
			lazydfa.StringIndex(doc))
	}
	for i := 0; i < len(doc); i++ {
		if i&(rlockChunk-1) == rlockChunk-1 {
			w.Yield()
		}
		c := g.classOf[doc[i]]
		t := w.States[cur].Trans(c)
		if t <= dfaDead {
			if t == dfaUnknown {
				t = w.Resolve(cur, c)
			}
			if t == dfaOverflow {
				w.Release()
				return false
			}
			if t == dfaDead {
				// Every admitted member's frontier died: no later boundary
				// can complete any member's match (finals stay 0, exactly
				// like the per-member early exit).
				w.Release()
				return true
			}
		}
		if !g.noSkip {
			// Same soundness argument as scanProg.forward: skip sets never
			// contain a state with any end bit (see skipSet), so skipped
			// boundaries owe no member an ends entry, and the state at each
			// skipped boundary is sk.Sync(previous byte) — checkpoints
			// filled during the jump are the true fused states.
			if sk := gate.Step(cur, t); sk != nil {
				if j, _ := gate.Jump(sk, i+1, len(doc)); j > i+1 {
					for cb := (i + checkpointStride) / checkpointStride * checkpointStride; cb < j; cb += checkpointStride {
						if cb == i+1 {
							ms.checkpoints = append(ms.checkpoints, t)
						} else {
							ms.checkpoints = append(ms.checkpoints, sk.Sync(doc[cb-1]))
						}
					}
					ms.skipped += j - (i + 1)
					if j-(i+1) >= rlockChunk {
						w.Yield()
					}
					t = sk.Sync(doc[j-1])
					i = j - 1
				}
			}
		}
		cur = t
		b := i + 1
		if b&(checkpointStride-1) == 0 {
			ms.checkpoints = append(ms.checkpoints, cur)
		}
		if e := w.States[cur].Payload.end; e != 0 {
			// Demultiplex the boundary to every member whose subset holds
			// an end state, run-length-encoded per member exactly like the
			// standalone scan.
			for eb := e; eb != 0; eb &= eb - 1 {
				s := bits.TrailingZeros64(eb)
				runs := ms.ends[s]
				if n := len(runs); n > 0 && runs[n-1] == int32(b) {
					runs[n-1] = int32(b + 1)
				} else {
					runs = append(runs, int32(b), int32(b+1))
				}
				ms.ends[s] = runs
			}
		}
	}
	ms.finals = w.States[cur].Payload.fin
	w.Release()
	return true
}

// skipSet builds the synchronized skip set around fused state cur.
// Eligibility requires an all-zero end bitmap: a boundary inside a jump
// must owe NO member an ends entry. fin bits are only read at the
// document end, where the state is sync-exact.
func (g *multiGroup) skipSet(w *lazydfa.Walker[multiFlags], cur int32) *lazydfa.SkipSet {
	return BuildSkipSet(g.nclasses, g.classOf[:],
		func(q int32) bool { return q >= dfaStart && w.States[q].Payload.end == 0 },
		nil,
		func(q int32, c uint8) (int32, bool) {
			t := w.States[q].Trans(c)
			if t == dfaUnknown {
				t = w.Resolve(q, c)
			}
			return t, t != dfaOverflow
		}, cur)
}

// seedAt reconstructs member slot's status-0 frontier at boundary lo by
// replaying the FUSED scan DFA from the nearest checkpoint and
// projecting the subset onto the member's state range. Because the
// fused subset is the union of the per-member subsets, the projection
// minus the base offset is exactly what the member's own seedAt would
// have produced. The result aliases ms.seed.
func (g *multiGroup) seedAt(slot int, doc string, lo int, ms *multiScratch) []int32 {
	k := lo / checkpointStride
	cur := ms.checkpoints[k]
	w := g.dfa.Walk()
	for i := k * checkpointStride; i < lo; i++ {
		c := g.classOf[doc[i]]
		t := w.States[cur].Trans(c)
		if t == dfaUnknown {
			// The forward pass resolved every transition on this path;
			// only a concurrent rebuild could leave a gap. Resolve again.
			t = w.Resolve(cur, c)
		}
		if t == dfaDead || t == dfaOverflow {
			cur = dfaDead
			break
		}
		cur = t
	}
	ms.seed = ms.seed[:0]
	base := g.base[slot]
	limit := base + int32(g.progs[slot].nstates)
	status := g.locs[slot].status
	for _, q := range w.States[cur].Set {
		if q >= base && q < limit && status[q-base] == 0 {
			ms.seed = append(ms.seed, q-base)
		}
	}
	w.Release()
	return ms.seed
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
func (m *Multi) EvalAppend(doc string, by span.Span, rel func(i int) *span.Relation, arena *span.TupleArena) {
	m.Prepare()
	mm := m.metrics.Load()
	for _, g := range m.groups {
		m.evalGroup(g, doc, by, rel, arena, mm)
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

func (m *Multi) evalGroup(g *multiGroup, doc string, by span.Span, rel func(int) *span.Relation, arena *span.TupleArena, mm *MultiMetrics) {
	// Per-member admission bitmap: a member whose mandatory factor is
	// absent has a provably empty relation and leaves the fused start
	// subset; the remaining members scan at full strength.
	var admit uint64
	for s, f := range g.factors {
		if f == "" || strings.Contains(doc, f) {
			admit |= 1 << s
		} else if mm != nil {
			mm.AdmissionSkips.Inc()
		}
	}
	if admit == 0 {
		return
	}
	start := g.startFor(admit)
	if start == dfaOverflow {
		m.groupFallback(g, admit, doc, by, rel, arena, mm)
		return
	}
	ms := multiScratchPool.Get().(*multiScratch)
	defer multiScratchPool.Put(ms)
	for len(ms.ends) < len(g.autos) {
		ms.ends = append(ms.ends, nil)
	}
	if !g.forward(doc, start, ms) {
		// Fused DFA overflow: every admitted member of the group falls
		// back to its standalone pipeline.
		m.groupFallback(g, admit, doc, by, rel, arena, mm)
		return
	}
	if mm != nil {
		mm.FusedPasses.Inc()
		mm.FusedBytes.Add(uint64(len(doc)))
		if ms.skipped > 0 {
			mm.FusedSkippedBytes.Add(uint64(ms.skipped))
		}
	}
	delta := by.Start - 1
	ws := windowPool.Get().(*windowScratch)
	defer windowPool.Put(ws)
	for s, a := range g.autos {
		if admit&(1<<s) == 0 {
			continue
		}
		fin := ms.finals&(1<<s) != 0
		if len(ms.ends[s]) == 0 && !fin {
			// No boundary where a match of this member can complete:
			// its relation is empty; the simulation never runs.
			continue
		}
		r := rel(g.members[s])
		if len(r.Vars) != len(a.Vars) {
			panic("vsa: Multi.EvalAppend relation arity does not match member arity")
		}
		// Member-view scratch for the backward narrowing: the member's
		// demultiplexed end runs and finals flag. Copied, not aliased —
		// ws and ms return to different pools.
		ws.ends = append(ws.ends[:0], ms.ends[s]...)
		ws.finalsAtEnd = fin
		p := g.progs[s]
		if !g.locs[s].narrow(p, doc, ws) {
			// Backward-narrowing overflow for this member alone: its
			// standalone EvalAppend takes the same fallback internally.
			m.memberFallback(g.members[s], doc, by, rel, arena, mm)
			continue
		}
		n0 := len(r.Tuples)
		sc := acquireEvalScratch(p)
		run := newEvalRun(a, p, sc, r, doc, delta, arena)
		for _, wd := range ws.windows {
			seed := g.seedAt(s, doc, wd.lo, ms)
			run.window(wd.lo, wd.hi, seed, wd.hi == len(doc))
		}
		scratchPool.Put(sc)
		if mm != nil {
			mm.DemuxTuples.Add(uint64(len(r.Tuples) - n0))
		}
	}
}

// groupFallback evaluates every admitted member of a group standalone
// (fused-DFA overflow, or an uncacheable admission start state).
// Members the admission bitmap rejected stay empty — the factor gate's
// soundness does not depend on the fused pass.
func (m *Multi) groupFallback(g *multiGroup, admit uint64, doc string, by span.Span, rel func(int) *span.Relation, arena *span.TupleArena, mm *MultiMetrics) {
	for s := range g.autos {
		if admit&(1<<s) != 0 {
			m.memberFallback(g.members[s], doc, by, rel, arena, mm)
		}
	}
}
