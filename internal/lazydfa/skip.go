package lazydfa

import (
	"bytes"
	"strings"
	"sync"
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
// long enough to matter. A jump only pays where triggers are rare, so
// the gate measures its yield and stands down where they are not.

// MaxSkipTriggers is the largest trigger set worth a skip loop: one
// IndexByte pass per trigger per document region is paid for the jump,
// so past a handful of distinct bytes the plain DFA step wins.
const MaxSkipTriggers = 8

// MaxSkipStates bounds the synchronized state set C. Useful sets are
// tiny (a self-loop, or the 2–3 states of a word/separator oscillation);
// a large set is a sign the region is genuinely making progress.
const MaxSkipStates = 4

// DefaultSkipStreak is the run length of bytes confined to at most two
// states after which the scan loops consult the skip cache. Charging a
// streak first keeps the per-byte cost of progress-making regions to a
// couple of compares and makes the cache lookup O(1) amortized.
const DefaultSkipStreak = 16

// skipMissLimit is how many consecutive bytes may land outside an armed
// gate's state set before the gate disarms. Keeping the set armed
// across short excursions (a partial literal match that fails) lets the
// scan resume jumping immediately; a long miss run means the document
// region changed character and the per-byte Contains test is wasted.
const skipMissLimit = 512

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
	states   []int32 // sorted, ≤ MaxSkipStates
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

// Triggers exposes the trigger bytes (read-only).
func (s *SkipSet) Triggers() []byte { return s.triggers }

// Contains reports whether q is in the synchronized set.
func (s *SkipSet) Contains(q int32) bool {
	for _, v := range s.states {
		if v == q {
			return true
		}
	}
	return false
}

// Sync returns the unique state reached from anywhere in the set on
// byte b. Only meaningful for non-trigger bytes.
func (s *SkipSet) Sync(b byte) int32 { return s.sync[b] }

// SkipCache memoizes the SkipSet built from every DFA state a scan has
// tried to skip from. Entries are immutable once stored; a stored nil
// records "unskippable" so hot loops do not rebuild the answer. The
// cache is per-client-DFA and shared by concurrent scans. Concurrent
// first lookups of one state may both run the builder; the first Store
// wins and the results are identical, so the race is benign.
type SkipCache struct {
	m sync.Map // int32 state → *SkipSet
}

// Lookup returns the cached SkipSet of state. ok=false means the state
// has not been built yet (a cached nil returns ok=true).
func (c *SkipCache) Lookup(state int32) (set *SkipSet, ok bool) {
	v, ok := c.m.Load(state)
	if !ok {
		return nil, false
	}
	return v.(*SkipSet), true
}

// Store records the SkipSet of state (nil = unskippable) and returns
// the winning entry: the first stored value if another goroutine got
// there first.
func (c *SkipCache) Store(state int32, set *SkipSet) *SkipSet {
	v, _ := c.m.LoadOrStore(state, set)
	return v.(*SkipSet)
}

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

// SkipGate is the per-scan engagement state machine deciding when a
// scan loop should attempt a jump. It is what keeps the skip machinery
// out of the way on progress-making input: disengaged, it costs two or
// three compares per byte; armed, it additionally tests membership of
// the current state in the armed set (≤ MaxSkipStates compares) so the
// scan resumes jumping immediately after a short excursion (e.g. a
// failed partial literal match). Where the jumps themselves do not pay
// — a window of them gaining under skipBreakEven bytes each — the gate
// stands down and costs one compare per byte from then on. A SkipGate
// is single-goroutine.
type SkipGate struct {
	cache *SkipCache
	build func(q int32) *SkipSet
	index func(from, to int, b byte) int
	run   SkipRun
	sk    *SkipSet // armed set, nil when disarmed
	// Two-entry build memo in front of the shared cache: a word/
	// separator oscillation alternates between two lookup keys, and
	// going to the shared map per alternation would dominate.
	kA, kB int32
	vA, vB *SkipSet
	prev   int32 // previous distinct state, for 2-state streak tracking
	streak int
	miss   int
	// The yield of the current window: jumps made and bytes they gained.
	jumps, gain int
	down        bool // stood down: no more jumps this pass or stream
}

// Init points the gate at the DFA's shared skip cache. Must be called
// once before the first Step; persistent engagement state (armed set,
// streak, memo, yield window, stand-down) survives across Bind calls.
func (g *SkipGate) Init(cache *SkipCache) {
	g.cache = cache
	g.kA, g.kB = -1, -1
	g.prev = -1
}

// Ready reports whether Init has run (lets resumable scans lazily
// initialize the gate they persist across chunks).
func (g *SkipGate) Ready() bool { return g.cache != nil }

// Bind attaches the per-scan callbacks: build constructs the SkipSet of
// a state (consulted through the cache), index searches the current
// document or chunk. Rebinding keeps the armed set and streak (a
// resumable scan crosses chunk boundaries mid-streak) but discards the
// occurrence cache, which is document-relative.
func (g *SkipGate) Bind(build func(q int32) *SkipSet, index func(from, to int, b byte) int) {
	g.build = build
	g.index = index
	g.run.Reset(nil, index)
}

// Step advances the engagement machine with one transition: the scan
// held state cur and moved to t (a real state, not a sentinel). It
// returns the SkipSet to jump with when the scan may skip from t, else
// nil. The caller jumps from the boundary after t's byte.
func (g *SkipGate) Step(cur, t int32) *SkipSet {
	if g.down {
		return nil
	}
	if g.sk != nil {
		if g.sk.Contains(t) {
			g.miss = 0
			return g.sk
		}
		if g.miss++; g.miss >= skipMissLimit {
			g.sk = nil
			g.miss = 0
		}
	}
	if t != cur {
		if t != g.prev {
			g.prev = cur
			g.streak = 0
			return nil
		}
		g.prev = cur
	}
	if g.streak++; g.streak < DefaultSkipStreak {
		return nil
	}
	// One cache consultation per streak window: a nil answer (state not
	// skippable) would otherwise be re-fetched every byte.
	g.streak = 0
	if s := g.resolve(t); s != nil && s.Contains(t) {
		g.sk = s
		g.miss = 0
		return s
	}
	return nil
}

func (g *SkipGate) resolve(q int32) *SkipSet {
	if q == g.kA {
		return g.vA
	}
	if q == g.kB {
		return g.vB
	}
	s, ok := g.cache.Lookup(q)
	if !ok {
		s = g.cache.Store(q, g.build(q))
	}
	g.kB, g.vB = g.kA, g.vA
	g.kA, g.vA = q, s
	return s
}

// Jump searches for the next trigger of s in [from, n), switching the
// occurrence cache over when the armed set changed. Every skipWindow
// jumps it weighs their gain: under skipBreakEven bytes a jump, the
// gate stands down (see StoodDown).
func (g *SkipGate) Jump(s *SkipSet, from, n int) (to int, hit bool) {
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
func (g *SkipGate) StoodDown() bool { return g.down }
