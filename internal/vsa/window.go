package vsa

// This file implements bidirectional match-window localization, the
// optimization that lets evaluation pay the tagged frontier simulation
// only where matches can actually live. The spanner shapes that dominate
// extraction workloads — Σ*·extraction·Σ* and friends — spend almost the
// whole document in a variable-free prefix or suffix; the simulation's
// per-byte cost (a frontier walk of the tag DFA) is wasted there. The
// localizer replaces it with two byte-class DFA passes:
//
//  1. Forward end-detection: a lazily determinized DFA over the scan
//     automaton — the automaton with emit states truncated (an emit state
//     is all-closed and suffix-universal, so evaluation emits and drops a
//     run the moment it enters one) — marks every boundary where some run
//     completes, plus whether the document can accept at its end through
//     final operation sets. A document with no marked boundary and no
//     end-acceptance has an empty relation: the scan subsumes the old
//     EvalBool prescan in the same single pass.
//  2. Backward start-narrowing: from each candidate end, a DFA over the
//     reversed core automaton (built with automata.Reverse; see
//     reverse.go) walks right to left to the earliest boundary where that
//     match's core — the run segment between its first variable operation
//     and its emission — can begin. Overlapping candidate regions share
//     one union frontier, so the pass costs O(total window span), not
//     O(ends × span).
//
// The tagged simulation then runs per window, seeded with the exact set
// of status-0 states reachable at the window start (reconstructed from
// forward-scan checkpoints), with positions kept in document coordinates.
// Every run's core lies inside a window by construction, and every seeded
// state is genuinely reachable, so windowed evaluation is byte-identical
// to whole-document evaluation (fuzz-verified against EvalReference). An
// automaton that is not functional (hand-built only) is evaluated as its
// functionalization (Section 4.2), so it too takes this one path.
//
// There is ONE forward scan. It runs over a scanGroup: the disjoint union
// of up to 64 members' scan automata (the spanner-algebra union
// construction of Maturana, Riveros & Vrgoč, restricted to the Boolean
// scan layer), whose DFA payload says per member whether the subset holds
// an end state or a final-bearing state. An automaton's own localizer
// holds the group of one member — itself — and a Multi (multi.go) holds
// groups of many, or reuses a member's own group where it would hold that
// member alone. There is ONE evaluation pass too: MultiSession.pass runs
// every group, and an automaton evaluated alone is the Multi of one its
// localizer keeps (Automaton.EvalAppend). One member is not a special
// case of that code, only its smallest input.
//
// When the analysis cannot apply — nullary automata, or a DFA
// state-bound overflow — evaluation only ever steps down: from a
// group of many to each member's group of one, and from there to the
// EvalBool prescan plus one whole-document simulation. EvalBool walks the
// same one-member group (dfa.go); an automaton that cannot be narrowed
// still has one, with no end states.

import (
	"math/bits"
	"strings"
	"sync"

	"repro/internal/alphabet"
	"repro/internal/lazydfa"
)

// checkpointStride is the boundary spacing of forward-scan DFA state
// checkpoints (power of two); window seeding replays at most this many
// bytes. 32 trades 12.5% of the document length in pooled scratch for
// halving the replay cost on match-dense documents.
const checkpointStride = 32

// maxGroupMembers bounds one scan group: the payload's end and finals
// bitmaps (and a Multi's admission masks) are uint64s indexed by the
// member's slot within its group.
const maxGroupMembers = 64

// maxGroupDFAStates bounds one group's lazy DFA. The fused subset space
// is (at worst) the product of the members' subset spaces, so the bound
// scales with the group size — maxDFAStates per member, which for one
// member is the bound of every other DFA in this package — up to this
// cap. Overflowing it is not an error, just the next rung of the ladder.
const maxGroupDFAStates = 1 << 16

// window is a byte range [lo, hi) of the document that the tagged
// simulation must cover.
type window struct {
	lo, hi int
}

// localizer is the compiled bidirectional match-window machinery of an
// automaton: per-state statuses, the scan NFA tables, the backward
// narrowing program, the one-member scan group that evaluation of this
// automaton alone scans with, and the Multi of one that runs it. Built
// once under localOnce and read-only afterwards; the lazy DFAs beneath it
// publish their own fills. rev exists only when ok, the rest always. An
// automaton that is not functional has its functionalization's localizer,
// whose group and Multi of one hold the functionalization.
type localizer struct {
	ok     bool
	reason string // why localized evaluation is disabled, when !ok

	status []Status
	scan   *scanProg
	rev    *revProg
	group  *scanGroup
	one    *Multi
}

// localizer returns the compiled window localizer, building it on first
// use. Building freezes the automaton, like every evaluation cache.
func (a *Automaton) localizer() *localizer {
	a.localOnce.Do(func() {
		a.frozen.Store(true)
		a.localVal = a.buildLocalizer()
	})
	return a.localVal
}

// buildLocalizer builds the one-member scan group for every functional
// automaton: it is also the DFA EvalBool walks. A nullary automaton, which
// the localizer cannot narrow, gets a group without end states, whose DFA
// is the plain Boolean subset construction of the automaton.
func (a *Automaton) buildLocalizer() *localizer {
	st, err := a.Statuses()
	if err != nil {
		// Only hand-built automata are not functional. Their
		// functionalization (Section 4.2) keeps exactly the valid
		// ref-words, and it is what evaluating a runs.
		return a.ToRaw().Compile().localizer()
	}
	loc := &localizer{status: st}
	p := a.prog()
	end := make([]bool, len(a.States))
	if len(a.Vars) == 0 {
		loc.reason = "nullary automaton: no variable operations to localize"
	} else {
		all := AllClosed(len(a.Vars))
		for q := range a.States {
			// Emit states: evaluation emits a run's tuple and drops the run
			// the moment it enters one (see evalRun.window), so they are
			// exactly the boundaries where matches complete early.
			end[q] = st[q] == all && p.uni[q]
		}
		loc.rev = buildRevProg(p, a, st, end)
		loc.ok = true
	}
	loc.scan = buildScanProg(p, end)
	loc.group = newScanGroup([]*Automaton{a}, []*localizer{loc})
	loc.one = NewMulti(a)
	return loc
}

// ---------- forward end-detection ----------

// scanProg is one member's forward end-detection NFA: the automaton with
// variable operations stripped and emit states truncated (their outgoing
// edges removed, mirroring evaluation's emit-and-drop), as per-(state,
// class) successor lists plus the two per-state facts a group's payload
// is made of. Determinization belongs to the scanGroup.
type scanProg struct {
	succ     [][]int32 // per state*nclasses: deduplicated successors
	end      []bool
	hasFinal []bool
}

func buildScanProg(p *evalProg, end []bool) *scanProg {
	nc, n := p.nclasses, p.nstates
	s := &scanProg{
		succ:     make([][]int32, n*nc),
		end:      end,
		hasFinal: p.hasFinal,
	}
	mark := make([]bool, n)
	for q := 0; q < n; q++ {
		if end[q] {
			continue // truncated: runs are emitted and dropped on entry
		}
		for c := 0; c < nc; c++ {
			var out []int32
			for _, e := range p.succ[q*nc+c] {
				if !mark[e.to] {
					mark[e.to] = true
					out = append(out, e.to)
				}
			}
			for _, t := range out {
				mark[t] = false
			}
			s.succ[q*nc+c] = out
		}
	}
	return s
}

// scanFlags is the scan DFA's per-state payload: per-member-slot bitmaps
// saying whose subset contains an emit-truncated end state (end) and
// whose contains a final-bearing state (fin).
type scanFlags struct {
	end uint64
	fin uint64
}

// scanGroup is the unit the forward scan runs over: up to
// maxGroupMembers localizable automata (or one that is not), the
// byte-class table of their combined partition, the disjoint union of
// their scan NFAs and its lazy DFA.
//
//   - Fused NFA states are member scan states shifted by a per-member
//     base offset, so member s's state q becomes base[s]+q and no two
//     members' states collide. There are no cross-member edges, so the
//     reachable subset at every boundary is exactly the union of the
//     per-member subsets — the projection [base[s], base[s]+nₛ) of a
//     fused subset IS member s's subset, which is what makes every
//     per-member artifact below independent of who else is in the group.
//   - Demultiplexing is reading the payload's bitmaps: the single pass
//     yields each member its own candidate match-end runs and its own
//     finals-at-end flag.
//   - Variable tags never enter the group. The tagged frontier simulation
//     (the only part that touches OpSets) runs per member, on the
//     member's own compiled program, inside the member's own narrowed
//     windows — so MaxVars bounds each member, not the group, and no tag
//     renaming or collision handling is needed.
//
// Per-member mandatory-factor prefilters become an admission bitmap: a
// member whose factor is absent from the document is excluded from the
// start subset (its relation is provably empty — the factor is mandatory
// in every accepted document), while the remaining members scan at full
// strength. The state interned first, dfaStart, is the start subset of
// all members together; a partial admission mask starts at the state the
// DFA interns for its start subset.
type scanGroup struct {
	autos []*Automaton
	progs []*evalProg
	locs  []*localizer
	pf    []PrefilterInfo // admission factor per slot ("" = always admitted)

	base     []int32 // fused-state offset per slot
	nstates  int     // total fused NFA states
	nclasses int     // combined byte classes
	classOf  [256]uint8
	classMap [][]uint8 // per slot: combined class → member class
	owner    []uint8   // fused NFA state → slot
	local    []int32   // fused NFA state → member-local state

	// noSkip honors DisablePrefilter: one member opting out disables the
	// skip loop for the whole group — skips never change results, but
	// DisablePrefilter promises a fully stepped scan and the differential
	// tests hold the scan to it.
	noSkip bool

	dfa      *lazydfa.DFA[scanFlags]
	fullMask uint64 // every slot admitted: the group's dfaStart
}

// newScanGroup fuses the scan programs of autos, whose localizers are
// locs (passed in, not looked up: a localizer builds its own one-member
// group while it is itself still under construction).
func newScanGroup(autos []*Automaton, locs []*localizer) *scanGroup {
	g := &scanGroup{autos: autos, locs: locs}
	var classes []alphabet.Class
	for _, a := range autos {
		g.progs = append(g.progs, a.prog())
		g.pf = append(g.pf, a.prefilter().info)
		g.noSkip = g.noSkip || a.prefDisabled
		if len(autos) > 1 {
			classes = a.appendClasses(classes)
		}
	}
	// A group of one takes its member's partition as it is.
	reps := g.progs[0].reps
	g.classOf = g.progs[0].classOf
	if len(autos) > 1 {
		g.classOf, reps = alphabet.ClassTable(classes)
	}
	g.nclasses = len(reps)
	for _, p := range g.progs {
		// The combined partition refines every member's: all bytes of a
		// combined class share the member class of any representative.
		// (Of one member it is that member's partition.)
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
	for s, p := range g.progs {
		for q := 0; q < p.nstates; q++ {
			g.owner[int(g.base[s])+q] = uint8(s)
			g.local[int(g.base[s])+q] = int32(q)
		}
	}
	g.dfa = lazydfa.New(lazydfa.Config[scanFlags]{
		Classes:   g.nclasses,
		States:    g.nstates,
		MaxStates: min(maxDFAStates*len(autos), maxGroupDFAStates),
		Succ: func(q int32, c uint8, emit func(int32)) {
			s := g.owner[q]
			mc := g.classMap[s][c]
			for _, to := range g.locs[s].scan.succ[int(g.local[q])*g.progs[s].nclasses+int(mc)] {
				emit(g.base[s] + to)
			}
		},
		Payload: func(set []int32) scanFlags {
			var f scanFlags
			for _, q := range set {
				s := g.owner[q]
				scan := g.locs[s].scan
				if scan.end[g.local[q]] {
					f.end |= 1 << s
				}
				if scan.hasFinal[g.local[q]] {
					f.fin |= 1 << s
				}
			}
			return f
		},
	})
	g.fullMask = ^uint64(0) >> (64 - uint(len(autos)))
	g.dfa.Intern(g.startSet(nil, g.fullMask)) // = dfaStart
	return g
}

// startFor returns the start state of an admission mask: the full mask
// is the state the group interned first, a partial one the state its
// start subset interns to (the DFA's own table finds a repeat). Intern
// takes the DFA's write lock and is safe at any time (unlike Seed);
// Overflow at the state bound is returned to the caller, which takes the
// next rung of the ladder.
func (g *scanGroup) startFor(mask uint64) int32 {
	if mask == g.fullMask {
		return dfaStart
	}
	var set [maxGroupMembers]int32
	return g.dfa.Intern(g.startSet(set[:0], mask))
}

// startSet appends the start subset of an admission mask to set: the
// admitted members' start states, shifted by their bases (ascending,
// hence already sorted and duplicate-free as Intern requires).
func (g *scanGroup) startSet(set []int32, mask uint64) []int32 {
	for s, a := range g.autos {
		if mask&(1<<s) != 0 {
			set = append(set, g.base[s]+int32(a.Start))
		}
	}
	return set
}

// forward runs the end-detection pass from DFA state start: one lookup
// per byte. It records DFA state checkpoints every checkpointStride
// boundaries, every member's candidate match-end boundaries (as [lo, hi)
// runs, demultiplexed from the payload's end bitmap), and the finals
// bitmap at the document end, all into ws. It returns false if the DFA
// overflowed its state bound — the caller then takes the next rung of
// the ladder. A dead frontier ends the pass early: no later boundary can
// complete any member's match.
func (g *scanGroup) forward(doc string, start int32, ws *scanScratch) bool {
	// The group and the document live in ws, where the skip callbacks
	// bound at its construction read them.
	ws.g, ws.doc = g, doc
	var gate lazydfa.SkipGate[scanFlags]
	defer ws.endPass(&gate)
	st := g.dfa.Snapshot()
	cur := start
	ws.checkpoints = append(ws.checkpoints[:0], start)
	for len(ws.ends) < len(g.autos) {
		ws.ends = append(ws.ends, nil)
	}
	for s := range g.autos {
		ws.ends[s] = ws.ends[s][:0]
	}
	ws.finals = 0
	ws.skipped = 0
	if !g.noSkip {
		gate.Bind(g.dfa, ws.build, ws.index)
	}
	for i := 0; i < len(doc); i++ {
		c := g.classOf[doc[i]]
		t := st[cur].Trans(c)
		if t <= dfaDead || int(t) >= len(st) { // rare: unresolved, stale, overflowed or dead
			if t, st = g.dfa.Resolve(cur, c); t == dfaOverflow {
				return false
			}
			if t == dfaDead {
				return true
			}
		}
		if !g.noSkip {
			// The walk is confined to a synchronized state set: jump to the
			// next byte that can break out. skipSet keeps states with any end
			// bit out of every set, so no skipped boundary could have owed a
			// member an ends entry, and the state at each skipped boundary
			// is a pure function of the byte before it (sk.Sync) — that is
			// the skip's soundness invariant.
			if sk := gate.Step(st, cur, t); sk != nil {
				if j, _ := gate.Jump(sk, i+1, len(doc)); j > i+1 {
					// Checkpoint every stride boundary in [i+1, j): the jump
					// bypasses the per-byte append below for them (boundary j
					// itself is appended there after i advances). Boundary
					// i+1 holds t — the state the step above just computed —
					// and every later one holds the sync state of its
					// preceding (trigger-free) byte.
					for cb := (i + checkpointStride) / checkpointStride * checkpointStride; cb < j; cb += checkpointStride {
						if cb == i+1 {
							ws.checkpoints = append(ws.checkpoints, t)
						} else {
							ws.checkpoints = append(ws.checkpoints, sk.Sync(doc[cb-1]))
						}
					}
					ws.skipped += j - (i + 1)
					st = g.dfa.Snapshot() // the set's build may have interned its states
					t = sk.Sync(doc[j-1])
					i = j - 1 // boundary j is handled by the normal code below
				}
			}
		}
		cur = t
		b := i + 1
		if b&(checkpointStride-1) == 0 {
			ws.checkpoints = append(ws.checkpoints, cur)
		}
		// Demultiplex the boundary to every member whose subset holds an
		// end state, run-length-encoded per member.
		for e := st[cur].Payload.end; e != 0; e &= e - 1 {
			s := bits.TrailingZeros64(e)
			runs := ws.ends[s]
			if n := len(runs); n > 0 && runs[n-1] == int32(b) {
				runs[n-1] = int32(b + 1)
			} else {
				ws.ends[s] = append(runs, int32(b), int32(b+1))
			}
		}
	}
	ws.finals = st[cur].Payload.fin
	return true
}

// seedAt returns member slot's status-0 states reachable at boundary lo —
// the exact pre-core frontier of whole-document evaluation, every cell of
// which carries the all-unset assignment — reconstructed by replaying the
// scan DFA from the nearest checkpoint and projecting the subset onto the
// member's state range. The result aliases ws.seed.
func (g *scanGroup) seedAt(slot int, doc string, lo int, ws *scanScratch) []int32 {
	k := lo / checkpointStride
	cur := ws.checkpoints[k]
	st := g.dfa.Snapshot()
	for i := k * checkpointStride; i < lo; i++ {
		c := g.classOf[doc[i]]
		t := st[cur].Trans(c)
		if t < dfaDead || int(t) >= len(st) {
			t, st = g.dfa.Resolve(cur, c)
		}
		if t == dfaDead || t == dfaOverflow {
			cur = dfaDead
			break
		}
		cur = t
	}
	ws.seed = ws.seed[:0]
	base := g.base[slot]
	limit := base + int32(g.progs[slot].nstates)
	status := g.locs[slot].status
	for _, q := range st[cur].Set {
		if q >= base && q < limit && status[q-base] == 0 {
			ws.seed = append(ws.seed, q-base)
		}
	}
	return ws.seed
}

// ---------- backward start-narrowing ----------

// narrow runs member slot's backward pass over the candidate ends forward
// collected for it, right to left. Ends whose backward frontiers touch
// share one union frontier and merge into a single window, so windows
// come out disjoint and each run's core — traced by the reversed program
// from the end where the run completes down to its first variable
// operation — lies entirely inside one of them. It fills ws.windows in
// document order and returns false if the backward DFA overflowed its
// state bound.
func (g *scanGroup) narrow(slot int, doc string, ws *scanScratch) bool {
	p, r := g.progs[slot], g.locs[slot].rev
	ends := ws.ends[slot]
	ws.windows = ws.windows[:0]
	activeTop, sMin := -1, -1
	cur := dfaDead
	b := 0
	overflow := false
	flush := func() {
		if activeTop >= 0 && sMin >= 0 {
			ws.windows = append(ws.windows, window{sMin, activeTop})
		}
		activeTop, sMin = -1, -1
	}
	st := r.dfa.Snapshot()
	// stepDown consumes doc[b-1], moving the frontier one boundary left
	// and recording core starts flagged on the source state.
	stepDown := func() {
		b--
		c := p.classOf[doc[b]]
		t := st[cur].Trans(c)
		if t < dfaDead || int(t) >= len(st) {
			if t, st = r.dfa.Resolve(cur, c); t == dfaOverflow {
				overflow = true
				cur = dfaDead
				return
			}
		}
		if st[cur].Payload.start[c] {
			sMin = b
		}
		cur = t
	}
	// seedPoint walks the frontier down to boundary e and injects the end
	// seed (emit states; final-bearing states when fin) there.
	seedPoint := func(e int, fin bool) {
		for cur != dfaDead && b > e {
			stepDown()
			if overflow {
				return
			}
		}
		if cur == dfaDead {
			flush()
			activeTop, b = e, e
		}
		seed := r.seedFin
		if !fin {
			seed = r.seedEnd
		}
		var to int32
		if to, st = r.dfa.Inject(cur, seed); to == dfaOverflow {
			overflow = true
			return
		}
		cur = to
		if fin && r.finSeedHasStart && sMin < 0 {
			// A status-0 state carries final op sets: a core can live
			// entirely in the final boundary's operations.
			sMin = e
		}
	}
	if ws.finals&(1<<slot) != 0 {
		seedPoint(len(doc), true)
	}
	for i := len(ends); i >= 2 && !overflow; i -= 2 {
		lo, hi := int(ends[i-2]), int(ends[i-1])
		for e := hi - 1; e >= lo && !overflow; e-- {
			seedPoint(e, false)
		}
	}
	for cur != dfaDead && b > 0 && !overflow {
		stepDown()
	}
	if overflow {
		return false
	}
	flush()
	// Windows were produced right to left; evaluation wants document
	// order (it also keeps checkpoint replay cache-friendly).
	for i, j := 0, len(ws.windows)-1; i < j; i, j = i+1, j-1 {
		ws.windows[i], ws.windows[j] = ws.windows[j], ws.windows[i]
	}
	return true
}

// ---------- scratch ----------

// scanScratch holds the per-evaluation buffers of the localizer.
// Evaluation is called concurrently by the worker pools on shared
// automata, so scratch is pooled (sync.Pool) rather than cached on the
// automaton: concurrent evaluations share nothing but the frozen
// programs. A MultiSession keeps one for its lifetime; one-shot calls
// take one per call.
type scanScratch struct {
	checkpoints []int32
	ends        [][]int32 // per slot: candidate match-end boundaries, as [lo, hi) runs
	finals      uint64    // the payload's fin bitmap at the document end
	// skipped counts bytes the forward pass jumped over via the
	// literal-prefilter skip loop, and stoodDown says whether its skip
	// gate stood down for lack of yield; MultiSession.pass counts both
	// into its record.
	skipped   int
	stoodDown bool

	windows []window // narrow's result for the member being evaluated
	seed    []int32

	// The forward pass in flight: its group and document, set by forward
	// and dropped by endPass. They are fields so that build and index —
	// the SkipGate callbacks, closures over this scratch made once in
	// newScanScratch — cost nothing per document.
	g     *scanGroup
	doc   string
	build func(q int32) *lazydfa.SkipSet
	index func(from, to int, b byte) int
}

func newScanScratch() *scanScratch {
	ws := new(scanScratch)
	ws.build = func(q int32) *lazydfa.SkipSet { return ws.g.skipSet(q) }
	ws.index = func(from, to int, b byte) int {
		if i := strings.IndexByte(ws.doc[from:to], b); i >= 0 {
			return from + i
		}
		return -1
	}
	return ws
}

// endPass ends the forward pass: the scratch records whether the pass's
// skip gate stood down, and lets go of the document and group, which a
// pooled scratch must not keep alive.
func (ws *scanScratch) endPass(gate *lazydfa.SkipGate[scanFlags]) {
	ws.stoodDown = gate.StoodDown()
	ws.g, ws.doc = nil, ""
}

var scanPool = sync.Pool{New: func() any { return newScanScratch() }}
