package vsa

// This file implements bidirectional match-window localization, the
// optimization that lets Eval pay the tagged frontier simulation only
// where matches can actually live. The spanner shapes that dominate
// extraction workloads — Σ*·extraction·Σ* and friends — spend almost the
// whole document in a variable-free prefix or suffix; the simulation's
// per-byte cost (frontier scan, assignment arena, dedup table) is wasted
// there. The localizer replaces it with two byte-class DFA passes:
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
// to whole-document evaluation (fuzz-verified against EvalReference).
// When the analysis cannot apply — nullary automata, no per-state status,
// or a DFA state-bound overflow — Eval falls back to the PR 2 path:
// EvalBool prescan plus whole-document simulation.

import (
	"strings"
	"sync"

	"repro/internal/lazydfa"
)

// checkpointStride is the boundary spacing of forward-scan DFA state
// checkpoints (power of two); window seeding replays at most this many
// bytes. 32 trades 12.5% of the document length in pooled scratch for
// halving the replay cost on match-dense documents.
const checkpointStride = 32

// window is a byte range [lo, hi) of the document that the tagged
// simulation must cover.
type window struct {
	lo, hi int
}

// localizer is the compiled bidirectional match-window machinery of an
// automaton: per-state statuses, the forward scan program and the
// backward narrowing program. Built once under localOnce and read-only
// afterwards; the lazy DFAs beneath it carry their own locks.
type localizer struct {
	ok     bool
	reason string // why localized evaluation is disabled, when !ok

	status []Status
	scan   *scanProg
	rev    *revProg
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

func (a *Automaton) buildLocalizer() *localizer {
	loc := &localizer{}
	if len(a.Vars) == 0 {
		loc.reason = "nullary automaton: no variable operations to localize"
		return loc
	}
	st, err := a.Statuses()
	if err != nil {
		// Only hand-built non-functional automata land here; they still
		// evaluate through the whole-document path.
		loc.reason = "no per-state status: " + err.Error()
		return loc
	}
	p := a.prog()
	uni := a.suffixUniversality()
	all := AllClosed(len(a.Vars))
	end := make([]bool, len(a.States))
	for q := range a.States {
		// Emit states: evaluation emits a run's tuple and drops the run
		// the moment it enters one (see evalRun.place), so they are
		// exactly the boundaries where matches complete early.
		end[q] = st[q] == all && uni[q]
	}
	loc.status = st
	loc.scan = buildScanProg(p, a.Start, end)
	loc.scan.noSkip = a.prefDisabled
	loc.rev = buildRevProg(p, a, st, end)
	loc.ok = true
	return loc
}

// ---------- forward end-detection ----------

const (
	// scanFlagEnd marks a scan-DFA subset containing an emit state: the
	// current boundary is a candidate match end.
	scanFlagEnd uint8 = 1 << iota
	// scanFlagFinals marks a subset containing a state with final
	// operation sets: at the document end this boundary can accept.
	scanFlagFinals
)

// scanProg is the forward end-detection program: the automaton with
// variable operations stripped and emit states truncated (their outgoing
// edges removed, mirroring evaluation's emit-and-drop), compiled into
// per-(state, class) successor lists plus a lazily determinized DFA
// (internal/lazydfa) whose per-state payload is the end/finals flag byte
// of the subset.
type scanProg struct {
	nstates  int
	nclasses int
	succ     [][]int32 // per state*nclasses: deduplicated successors
	end      []bool
	hasFinal []bool
	dfa      *lazydfa.DFA[uint8]
	// skips memoizes per-DFA-state trigger sets for the forward-scan
	// skip loop (see prefilter.go); noSkip honors DisablePrefilter.
	skips  lazydfa.SkipCache
	noSkip bool
}

func buildScanProg(p *evalProg, start int, end []bool) *scanProg {
	nc, n := p.nclasses, p.nstates
	s := &scanProg{
		nstates:  n,
		nclasses: nc,
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
	s.dfa = lazydfa.New(lazydfa.Config[uint8]{
		Classes:   nc,
		States:    n,
		MaxStates: maxDFAStates,
		Succ: func(q int32, c uint8, emit func(int32)) {
			for _, to := range s.succ[int(q)*nc+int(c)] {
				emit(to)
			}
		},
		Payload: s.flagsOf,
	})
	s.dfa.Intern([]int32{int32(start)}) // = dfaStart
	return s
}

func (s *scanProg) flagsOf(set []int32) uint8 {
	var f uint8
	for _, q := range set {
		if s.end[q] {
			f |= scanFlagEnd
		}
		if s.hasFinal[q] {
			f |= scanFlagFinals
		}
	}
	return f
}

// forward runs the end-detection pass: one truncated-DFA lookup per byte.
// It records candidate match-end boundaries (as [lo, hi) runs), DFA state
// checkpoints every checkpointStride boundaries, and whether the document
// can accept at its end, all into ws. It returns false if the DFA
// overflowed its state bound — the caller then falls back to
// whole-document evaluation. A dead frontier ends the pass early: no
// later boundary can complete a match.
func (s *scanProg) forward(p *evalProg, doc string, ws *windowScratch) bool {
	const rlockChunk = 1 << 12
	// The walker and the document live in ws, where the skip callbacks
	// bound at its construction read them; the read lock is held from
	// here to endPass and no further.
	ws.scan, ws.p, ws.doc = s, p, doc
	ws.w = s.dfa.Walk()
	defer ws.endPass()
	w := &ws.w
	cur := dfaStart
	ws.checkpoints = append(ws.checkpoints[:0], dfaStart)
	ws.ends = ws.ends[:0]
	ws.finalsAtEnd = false
	ws.skippedBytes = 0
	var gate lazydfa.SkipGate
	if !s.noSkip {
		gate.Init(&s.skips)
		gate.Bind(ws.build, ws.index)
	}
	for i := 0; i < len(doc); i++ {
		if i&(rlockChunk-1) == rlockChunk-1 {
			// Let pending writers in periodically; see EvalBool.
			w.Yield()
		}
		c := p.classOf[doc[i]]
		t := w.States[cur].Trans(c)
		if t <= dfaDead { // rare: unresolved, overflowed or dead
			if t == dfaUnknown {
				t = w.Resolve(cur, c)
			}
			if t == dfaOverflow {
				return false
			}
			if t == dfaDead {
				return true
			}
		}
		if !s.noSkip {
			// The walk is confined to a synchronized state set: jump to the
			// next byte that can break out. skipSetScan keeps scanFlagEnd
			// states out of every set, so no skipped boundary could have
			// needed an ends entry, and the state at each skipped boundary
			// is a pure function of the byte before it (sk.Sync) — that is
			// the skip's soundness invariant.
			if sk := gate.Step(cur, t); sk != nil {
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
					ws.skippedBytes += j - (i + 1)
					if j-(i+1) >= rlockChunk {
						w.Yield()
					}
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
		if w.States[cur].Payload&scanFlagEnd != 0 {
			if n := len(ws.ends); n > 0 && ws.ends[n-1] == int32(b) {
				ws.ends[n-1] = int32(b + 1)
			} else {
				ws.ends = append(ws.ends, int32(b), int32(b+1))
			}
		}
	}
	ws.finalsAtEnd = w.States[cur].Payload&scanFlagFinals != 0
	return true
}

// seedAt returns the status-0 states reachable at boundary lo — the exact
// pre-core frontier of whole-document evaluation, every cell of which
// carries the all-unset assignment — reconstructed by replaying the scan
// DFA from the nearest checkpoint. The result aliases ws.seed.
func (loc *localizer) seedAt(p *evalProg, doc string, lo int, ws *windowScratch) []int32 {
	s := loc.scan
	k := lo / checkpointStride
	cur := ws.checkpoints[k]
	w := s.dfa.Walk()
	for i := k * checkpointStride; i < lo; i++ {
		c := p.classOf[doc[i]]
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
	ws.seed = ws.seed[:0]
	for _, q := range w.States[cur].Set {
		if loc.status[q] == 0 {
			ws.seed = append(ws.seed, q)
		}
	}
	w.Release()
	return ws.seed
}

// ---------- backward start-narrowing ----------

// narrow runs the backward pass over the candidate ends collected by
// forward, right to left. Ends whose backward frontiers touch share one
// union frontier and merge into a single window, so windows come out
// disjoint and each run's core — traced by the reversed program from the
// end where the run completes down to its first variable operation — lies
// entirely inside one of them. It fills ws.windows in document order and
// returns false if the backward DFA overflowed its state bound.
func (loc *localizer) narrow(p *evalProg, doc string, ws *windowScratch) bool {
	r := loc.rev
	ws.windows = ws.windows[:0]
	activeTop, sMin := -1, -1
	cur := dfaDead
	b := 0
	overflow := false
	steps := 0
	flush := func() {
		if activeTop >= 0 && sMin >= 0 {
			ws.windows = append(ws.windows, window{sMin, activeTop})
		}
		activeTop, sMin = -1, -1
	}
	w := r.dfa.Walk()
	// stepDown consumes doc[b-1], moving the frontier one boundary left
	// and recording core starts flagged on the source state.
	stepDown := func() {
		b--
		c := p.classOf[doc[b]]
		if steps++; steps&4095 == 0 {
			w.Yield()
		}
		t := w.States[cur].Trans(c)
		if t == dfaUnknown {
			t = w.Resolve(cur, c)
		}
		if t == dfaOverflow {
			overflow = true
			cur = dfaDead
			return
		}
		if w.States[cur].Payload.start[c] {
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
		// Cached injections resolve under the read lock already held; the
		// write-locked path runs once per (state, seed) pair.
		seed := r.seedFin
		if !fin {
			seed = r.seedEnd
		}
		to := w.Inject(cur, seed)
		if to == dfaOverflow {
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
	if ws.finalsAtEnd {
		seedPoint(len(doc), true)
	}
	for i := len(ws.ends); i >= 2 && !overflow; i -= 2 {
		lo, hi := int(ws.ends[i-2]), int(ws.ends[i-1])
		for e := hi - 1; e >= lo && !overflow; e-- {
			seedPoint(e, false)
		}
	}
	for cur != dfaDead && b > 0 && !overflow {
		stepDown()
	}
	w.Release()
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

// windowScratch holds the per-evaluation buffers of the localizer. Eval
// is called concurrently by the worker pools on a shared automaton, so
// scratch is pooled (sync.Pool) rather than cached on the automaton:
// concurrent windows share nothing but the frozen programs. A Session
// keeps one for its lifetime; one-shot calls take one per call.
type windowScratch struct {
	checkpoints []int32
	ends        []int32 // candidate match-end boundaries, as [lo, hi) runs
	windows     []window
	seed        []int32
	finalsAtEnd bool
	// skippedBytes counts bytes the forward pass jumped over via the
	// literal-prefilter skip loop; flushed into EvalMetrics by EvalAppend.
	skippedBytes int

	// The forward pass in flight: its program, read-locked walker and
	// document, set by forward and dropped by endPass. They are fields so
	// that build and index — the SkipGate callbacks, closures over this
	// scratch made once in newWindowScratch — cost nothing per document.
	scan  *scanProg
	p     *evalProg
	w     lazydfa.Walker[uint8]
	doc   string
	build func(q int32) *lazydfa.SkipSet
	index func(from, to int, b byte) int
}

func newWindowScratch() *windowScratch {
	ws := new(windowScratch)
	ws.build = func(q int32) *lazydfa.SkipSet { return ws.scan.skipSetScan(ws.p, &ws.w, q) }
	ws.index = func(from, to int, b byte) int {
		if i := strings.IndexByte(ws.doc[from:to], b); i >= 0 {
			return from + i
		}
		return -1
	}
	return ws
}

// endPass ends the forward pass: the scan DFA's read lock is released
// and the scratch lets go of the document and programs, which a pooled
// scratch must not keep alive.
func (ws *windowScratch) endPass() {
	ws.w.Release()
	ws.w = lazydfa.Walker[uint8]{}
	ws.scan, ws.p, ws.doc = nil, nil, ""
}

var windowPool = sync.Pool{New: func() any { return newWindowScratch() }}

func sortInt32s(xs []int32) {
	// Subsets are tiny (frontier-sized); insertion sort beats sort.Slice
	// and allocates nothing.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
