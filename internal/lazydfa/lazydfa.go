// Package lazydfa implements the one generic lazy subset-construction
// DFA engine behind every determinization cache in the system. A client
// describes an NFA-shaped successor relation over byte equivalence
// classes plus a payload function evaluated once per subset; the engine
// owns everything the former per-client copies triplicated — interned
// sorted-subset states, the transition table, the state-bound overflow
// sentinel, and the RLock-walk / Lock-fill discipline that lets many
// concurrent scans share one warm cache.
//
// The four clients (see DESIGN.md, "One DFA core, four clients"):
//
//   - vsa's Boolean-evaluation DFA (payload: subset contains a final
//     state),
//   - vsa's forward end-detection scan DFA, over a scan group of 1–64
//     member automata — the one scan behind single- and multi-query
//     evaluation alike (payload: per-member end/finals bitmaps),
//   - vsa's backward start-narrowing DFA (payload: per-class core-start
//     flags; uses seed injection),
//   - core's compiled splitter scanner (payload: per-class open/close/
//     wrap split events).
//
// Concurrency contract: configuration (New, Seed, Intern for start
// states) happens single-threaded at build time; afterwards any number
// of goroutines may Walk concurrently. A Walker holds the read lock
// between Walk and Release; Resolve/Inject/Yield drop it around the
// write-locked fill and refresh the Walker's state snapshot, so clients
// keep a single bounds-check-free array lookup per byte on the hot
// path. State ids are stable for the lifetime of the DFA — a client may
// save one (e.g. to resume a streamed scan at a chunk boundary) and
// walk on from it later.
package lazydfa

import "sync"

// Sentinel state ids and transition values. Dead is the interned empty
// subset, created by New with all transitions looping on itself;
// Unknown marks a transition not yet resolved; Overflow marks a
// transition whose target subset was not materialized because the DFA
// hit Config.MaxStates — the client falls back to direct subset
// simulation (or bails to a slower path) from there, instead of letting
// an adversarial automaton materialize 2^n states.
const (
	Dead     int32 = 0
	Unknown  int32 = -1
	Overflow int32 = -2
)

// DefaultMaxStates bounds a lazily built DFA when Config.MaxStates is
// zero. Real extractors determinize to a handful of subsets per byte
// class; the bound only matters for adversarial inputs.
const DefaultMaxStates = 1 << 12

// Config describes one client's determinization problem.
type Config[P any] struct {
	// Classes is the number of byte equivalence classes; every state's
	// transition table has exactly this many entries.
	Classes int
	// States is the number of underlying NFA states; subset members are
	// ids in [0, States).
	States int
	// MaxStates bounds the number of materialized DFA states (0 selects
	// DefaultMaxStates).
	MaxStates int
	// Succ emits the successors of one NFA state on one byte class. The
	// engine deduplicates and sorts across the whole subset; Succ may
	// emit duplicates freely. It is called under the DFA's write lock
	// and must only read frozen client data.
	Succ func(q int32, c uint8, emit func(to int32))
	// Payload computes the per-state payload of a subset, once, at state
	// creation (called with nil for Dead). The set is sorted and
	// duplicate-free, owned by the engine, and must not be retained or
	// mutated.
	Payload func(set []int32) P
}

// State is one interned subset-construction state. Set and Payload are
// immutable after creation; the transition table is filled in lazily
// under the DFA's write lock.
type State[P any] struct {
	Set     []int32 // sorted member states of the underlying NFA
	Payload P
	trans   []int32 // per byte class: successor id or a sentinel
	inj     []int32 // per registered seed: cached injection target
}

// Trans returns the cached transition on class c: a state id, or
// Unknown / Overflow (resolve with Walker.Resolve). Dead's transitions
// all loop on Dead.
func (s *State[P]) Trans(c uint8) int32 { return s.trans[c] }

// DFA is one lazily determinized subset automaton. Readers walk it
// under RLock via Walker; a missing transition is filled in under the
// write lock and becomes visible to every later walk — clients keep the
// DFA alive across calls (e.g. through the engine's plan cache), so the
// cache warms once per automaton, not once per document.
type DFA[P any] struct {
	cfg Config[P]

	mu     sync.RWMutex
	states []State[P]
	index  map[string]int32 // encoded subset → state id
	seeds  [][]int32

	// resolve scratch, guarded by mu (write side only).
	mark    []bool
	scratch []int32
}

// New returns a DFA containing only Dead (the interned empty subset).
// Register seeds and intern start states before the first Walk.
func New[P any](cfg Config[P]) *DFA[P] {
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = DefaultMaxStates
	}
	d := &DFA[P]{
		cfg:   cfg,
		index: map[string]int32{setKey(nil): Dead},
		mark:  make([]bool, cfg.States),
	}
	d.states = append(d.states, State[P]{
		Payload: cfg.Payload(nil),
		trans:   make([]int32, cfg.Classes), // all-zero: loops on itself
	})
	return d
}

// Intern returns the state id of a subset (sorted, duplicate-free),
// creating and paying its payload if it is new. Returns Overflow at the
// state bound. Clients use it for start states; interning the empty set
// returns Dead.
func (d *DFA[P]) Intern(set []int32) int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.intern(set)
}

// Seed registers a subset to be unioned into walking frontiers via
// Walker.Inject and returns its seed id. Injection targets are cached
// per (state, seed) pair. Must be called before the first Walk.
func (d *DFA[P]) Seed(set []int32) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seeds = append(d.seeds, set)
	for i := range d.states {
		d.states[i].inj = append(d.states[i].inj, Unknown)
	}
	return len(d.seeds) - 1
}

// Len returns the number of materialized states (including Dead).
func (d *DFA[P]) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.states)
}

// intern interns set under the write lock, copying it on a miss.
func (d *DFA[P]) intern(set []int32) int32 {
	key := setKey(set)
	if to, ok := d.index[key]; ok {
		return to
	}
	if len(d.states) >= d.cfg.MaxStates {
		return Overflow
	}
	cp := make([]int32, len(set))
	copy(cp, set)
	st := State[P]{
		Set:     cp,
		Payload: d.cfg.Payload(cp),
		trans:   make([]int32, d.cfg.Classes),
		inj:     make([]int32, len(d.seeds)),
	}
	for c := range st.trans {
		st.trans[c] = Unknown
	}
	for i := range st.inj {
		st.inj[i] = Unknown
	}
	to := int32(len(d.states))
	d.states = append(d.states, st)
	d.index[key] = to
	return to
}

// resolve fills the transition (from, class) under the write lock,
// creating the successor state if needed. The resolved value is cached
// — including the Overflow sentinel, so a DFA that hit the bound does
// not retry the construction on every byte.
func (d *DFA[P]) resolve(from int32, class uint8) int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t := d.states[from].trans[class]; t != Unknown {
		return t // resolved by a concurrent walk
	}
	out := d.scratch[:0]
	for _, q := range d.states[from].Set {
		d.cfg.Succ(q, class, func(to int32) {
			if !d.mark[to] {
				d.mark[to] = true
				out = append(out, to)
			}
		})
	}
	for _, q := range out {
		d.mark[q] = false
	}
	sortInt32s(out)
	d.scratch = out
	to := d.intern(out)
	d.states[from].trans[class] = to
	return to
}

// inject fills the (from, seed) injection under the write lock.
func (d *DFA[P]) inject(from int32, seed int) int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if t := d.states[from].inj[seed]; t != Unknown {
		return t
	}
	to := d.intern(mergeSortedInt32s(d.states[from].Set, d.seeds[seed]))
	d.states[from].inj[seed] = to
	return to
}

// Walker is one read-locked traversal of the DFA. The States snapshot
// gives the hot loop a single array lookup per byte; it is refreshed
// whenever the lock is cycled (Resolve, Inject, Yield), since the state
// slice may have grown meanwhile. Transition entries written by other
// goroutines' resolves remain visible through a snapshot: states are
// only appended, never moved, and their trans arrays are shared.
type Walker[P any] struct {
	d      *DFA[P]
	States []State[P]
}

// Walk acquires the read lock and returns a Walker. Every Walk must be
// balanced by exactly one Release.
func (d *DFA[P]) Walk() Walker[P] {
	d.mu.RLock()
	return Walker[P]{d: d, States: d.states}
}

// Release drops the read lock. The Walker must not be used afterwards.
func (w *Walker[P]) Release() { w.d.mu.RUnlock() }

// Yield cycles the read lock, letting pending writers in. Long scans
// call it periodically: a writer blocked in resolve stalls new RLock
// acquisitions, so a walker that never yields would serialize every
// other scan behind one warm-up miss.
func (w *Walker[P]) Yield() {
	w.d.mu.RUnlock()
	w.d.mu.RLock()
	w.States = w.d.states
}

// Resolve fills the transition (from, class) and returns it: a state
// id, or Overflow past the state bound.
func (w *Walker[P]) Resolve(from int32, class uint8) int32 {
	w.d.mu.RUnlock()
	t := w.d.resolve(from, class)
	w.d.mu.RLock()
	w.States = w.d.states
	return t
}

// Inject returns the state of subset(from) ∪ seed — a registered seed
// frontier merged into an already-walking one — resolving and caching
// it on first use. Returns Overflow past the state bound.
func (w *Walker[P]) Inject(from int32, seed int) int32 {
	if t := w.States[from].inj[seed]; t != Unknown {
		return t
	}
	w.d.mu.RUnlock()
	t := w.d.inject(from, seed)
	w.d.mu.RLock()
	w.States = w.d.states
	return t
}

func setKey(set []int32) string {
	b := make([]byte, 4*len(set))
	for i, q := range set {
		b[4*i] = byte(q)
		b[4*i+1] = byte(q >> 8)
		b[4*i+2] = byte(q >> 16)
		b[4*i+3] = byte(q >> 24)
	}
	return string(b)
}

func sortInt32s(xs []int32) {
	// Subsets are tiny (frontier-sized); insertion sort beats sort.Slice
	// and allocates nothing.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// mergeSortedInt32s merges two sorted, duplicate-free slices into a
// fresh sorted, duplicate-free slice.
func mergeSortedInt32s(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
