package lazydfa

import (
	"bytes"
	"strings"
)

// This file implements the byte-skip primitive of literal prefiltering
// (see internal/vsa/prefilter.go and DESIGN.md, "Literal prefiltering").
// A scan confined to a small closed set of DFA states C behaves like
// memchr when two conditions hold for every byte outside a small
// trigger set: consuming it from ANY state of C lands in the SAME state
// of C (the set is 1-byte synchronizing), and it raises no client event
// there. While the input stays trigger-free the scan may then jump
// straight to the next trigger byte with bytes.IndexByte, because the
// state at every skipped boundary is a pure function of the byte just
// before it — sync[b] — which makes checkpoints, payload flags and
// event decisions reconstructible exactly. The jump is byte-exact by
// construction, never a semantic shortcut. The single self-looping
// state is the degenerate case C = {q}; the set form is what makes
// word-structured text skippable, where the DFA oscillates between a
// mid-word and a post-separator state and no single state ever loops
// long enough to matter. A state's set is built once per DFA, by the
// first scan that needs it, and kept in the state (State.skip) for every
// later scan. A jump only pays where triggers are rare, so the gate
// measures its yield and stands down where they are not.

// MaxSkipTriggers is the largest trigger set worth a skip loop: one
// IndexByte pass per trigger per document region is paid for the jump,
// so past a handful of distinct bytes the plain DFA step wins.
const MaxSkipTriggers = 8

// MaxSkipStates bounds the synchronized state set C. Useful sets are
// tiny (a self-loop, or the 2–3 states of a word/separator oscillation);
// a large set is a sign the region is genuinely making progress.
const MaxSkipStates = 4

// DefaultSkipStreak is the run length of bytes confined to at most two
// states after which a scan builds the skip set of a state no scan has
// built yet. Charging a streak first keeps builds off progress-making
// regions, whose states would mostly turn out unskippable.
const DefaultSkipStreak = 16

// skipBreakEven is the mean gain per jump, in bytes, below which a
// jump (an IndexByte pass per trigger whose cached occurrence fell
// behind) costs more than stepping those bytes plainly.
const skipBreakEven = 8

// skipWindow is how many jumps a gate weighs at a time: a window that
// gained under skipBreakEven bytes a jump stands the gate down for the
// rest of its pass or stream. One trigger cluster in sparse text does
// not tip a window; trigger bytes that begin common words do.
const skipWindow = 32

// SkipSet is the compiled skip program of one synchronized DFA state
// set: the states of C, the trigger bytes on which the scan must stop
// (the set would desynchronize, leave C, or raise a client event), and
// the sync table giving the unique post-byte state for every
// non-trigger byte. A nil *SkipSet means "cannot skip here".
type SkipSet struct {
	triggers []byte
	states   []int32 // ≤ MaxSkipStates
	sync     [256]int32
}

// NewSkipSet builds a SkipSet, or returns nil when the trigger set is
// empty (only a dead-end region loops on every byte) or larger than
// MaxSkipTriggers, or the state set is empty or larger than
// MaxSkipStates. sync[b] must hold the unique state reached from every
// state of C on byte b, for every non-trigger b; trigger entries are
// never consulted (conventionally -1).
func NewSkipSet(triggers []byte, states []int32, sync *[256]int32) *SkipSet {
	if len(triggers) == 0 || len(triggers) > MaxSkipTriggers ||
		len(states) == 0 || len(states) > MaxSkipStates {
		return nil
	}
	s := &SkipSet{
		triggers: append([]byte(nil), triggers...),
		states:   append([]int32(nil), states...),
	}
	s.sync = *sync
	return s
}

// Sync returns the unique state reached from anywhere in the set on
// byte b. Only meaningful for non-trigger bytes.
func (s *SkipSet) Sync(b byte) int32 { return s.sync[b] }

// SkipRun is the per-scan occurrence cache of one SkipSet over one
// document. Each trigger's next occurrence is found with a vectorized
// IndexByte and remembered, so a document region is searched at most
// once per trigger no matter how many times the scan skips through it.
// A SkipRun is single-goroutine and must be Reset when the skipping
// set (or the document) changes.
type SkipRun struct {
	set *SkipSet
	// index searches doc[from:to] for b and returns an absolute doc
	// index or -1. Injected by the client so string and []byte scans
	// both dispatch to their vectorized stdlib search.
	index func(from, to int, b byte) int
	// next[i] caches trigger i's first occurrence at or after the last
	// search start, or the document end when there is none.
	next [MaxSkipTriggers]int
}

// Reset points the run at a SkipSet (nil disables it) using index to
// search the document. All cached occurrences are discarded.
func (r *SkipRun) Reset(set *SkipSet, index func(from, to int, b byte) int) {
	r.set = set
	r.index = index
	for i := range r.next {
		r.next[i] = -1
	}
}

// StringIndex adapts strings.IndexByte to SkipRun's search signature.
func StringIndex(doc string) func(from, to int, b byte) int {
	return func(from, to int, b byte) int {
		if i := strings.IndexByte(doc[from:to], b); i >= 0 {
			return from + i
		}
		return -1
	}
}

// BytesIndex adapts bytes.IndexByte to SkipRun's search signature.
func BytesIndex(doc []byte) func(from, to int, b byte) int {
	return func(from, to int, b byte) int {
		if i := bytes.IndexByte(doc[from:to], b); i >= 0 {
			return from + i
		}
		return -1
	}
}

// Jump returns the smallest index in [from, n) holding a trigger byte,
// and hit=true; with no trigger left it returns n and hit=false. The
// caller resumes its normal per-byte loop at the returned index: every
// byte in [from, to) is trigger-free, so the synchronized set consumed
// them without events, and the state at any boundary b in (from, to] is
// set.Sync(doc[b-1]).
func (r *SkipRun) Jump(from, n int) (to int, hit bool) {
	if r.set == nil || from >= n {
		return from, false
	}
	best := n
	for i, b := range r.set.triggers {
		nx := r.next[i]
		if nx < from {
			if nx = r.index(from, n, b); nx < 0 {
				nx = n // no occurrence left
			}
			r.next[i] = nx
		}
		if nx < best {
			best = nx
		}
	}
	return best, best < n
}

// unskippable fills the skip slot of a state whose build found no set.
var unskippable = new(SkipSet)

// SkipGate is the per-scan engagement state machine deciding when a
// scan loop should attempt a jump. Each DFA state keeps its own skip
// set, shared by every scan of the DFA: a slot that is empty until a
// scan builds it and then holds the set or "unskippable". A state whose
// set is known jumps at once. An unknown one is built only after the
// scan has stayed within two states for DefaultSkipStreak bytes, which
// keeps builds off progress-making input, and a built set fills the
// slot of every state it holds. Where the jumps themselves do not pay
// — a window of them gaining under skipBreakEven bytes each — the gate
// stands down and costs one compare per byte from then on. A SkipGate
// is single-goroutine.
type SkipGate[P any] struct {
	dfa    *DFA[P]
	build  func(q int32) *SkipSet
	index  func(from, to int, b byte) int
	run    SkipRun
	prev   int32 // previous distinct state, for 2-state streak tracking
	streak int
	// The yield of the current window: jumps made and bytes they gained.
	jumps, gain int
	down        bool // stood down: no more jumps this pass or stream
}

// Bind points the gate at the DFA d whose states it reads and fills,
// and attaches the per-scan callbacks: build constructs the SkipSet
// holding a state (nil when it has none), index searches the current
// document or chunk. Rebinding keeps the streak and the yield window (a
// resumable scan crosses chunk boundaries mid-streak) but discards the
// occurrence cache, which is document-relative.
func (g *SkipGate[P]) Bind(d *DFA[P], build func(q int32) *SkipSet, index func(from, to int, b byte) int) {
	g.dfa, g.build, g.index = d, build, index
	g.run.Reset(nil, index)
}

// Step advances the engagement machine with one transition: the scan
// held state cur and moved to t, a real state of its snapshot st. It
// returns the SkipSet to jump with when the scan may skip from t, else
// nil. The caller jumps from the boundary after t's byte.
func (g *SkipGate[P]) Step(st []State[P], cur, t int32) *SkipSet {
	if g.down {
		return nil
	}
	s := st[t].skip.Load()
	if s != nil && s != unskippable {
		return s
	}
	if t != cur {
		if t != g.prev {
			g.prev = cur
			g.streak = 0
			return nil
		}
		g.prev = cur
	}
	if g.streak++; g.streak < DefaultSkipStreak || s != nil { // s is unskippable: built already
		return nil
	}
	g.streak = 0
	return g.publish(t)
}

// publish builds t's skip set and stores it in the slot of every state
// it holds — a jump with the set is exact from any of them — or marks t
// unskippable. Concurrent scans may build one state at once: a slot
// keeps the first set stored (over an "unskippable", which a set holding
// the state replaces), and publish returns what t's slot holds after.
func (g *SkipGate[P]) publish(t int32) *SkipSet {
	s := g.build(t)
	st := g.dfa.Snapshot() // the build may have interned the set's states
	if s == nil {
		st[t].skip.CompareAndSwap(nil, unskippable)
	} else {
		for _, q := range s.states {
			if !st[q].skip.CompareAndSwap(nil, s) {
				st[q].skip.CompareAndSwap(unskippable, s)
			}
		}
	}
	if s = st[t].skip.Load(); s == unskippable {
		return nil
	}
	return s
}

// Jump searches for the next trigger of s in [from, n), switching the
// occurrence cache over when s is not the last jump's set. Every
// skipWindow jumps it weighs their gain: under skipBreakEven bytes a
// jump, the gate stands down (see StoodDown).
func (g *SkipGate[P]) Jump(s *SkipSet, from, n int) (to int, hit bool) {
	if g.run.set != s {
		g.run.Reset(s, g.index)
	}
	to, hit = g.run.Jump(from, n)
	g.gain += to - from
	if g.jumps++; g.jumps == skipWindow {
		g.down = g.down || g.gain < skipWindow*skipBreakEven
		g.jumps, g.gain = 0, 0
	}
	return to, hit
}

// StoodDown reports whether the gate has stopped skipping for the rest
// of its pass or stream because its jumps gained too little.
func (g *SkipGate[P]) StoodDown() bool { return g.down }
