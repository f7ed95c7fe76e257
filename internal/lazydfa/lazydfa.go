// Package lazydfa implements the one generic lazy subset-construction
// DFA engine behind every determinization cache in the system. A client
// describes an NFA-shaped successor relation over byte equivalence
// classes plus a payload function evaluated once per subset; the engine
// owns everything the former per-client copies triplicated — interned
// sorted-subset states, the transition table, each state's skip set
// (skip.go), the state-bound overflow sentinel, and the publication
// protocol that lets many concurrent scans share one warm cache without
// ever taking a lock to read it. Subsets
// are interned in an automata.SetTable, the tree's one table for int32
// vectors; a state's Set aliases the table's storage, which only ever
// grows past what has been published.
//
// The four clients (see DESIGN.md, "One DFA core, four clients"):
//
//   - vsa's forward end-detection scan DFA, over a scan group of 1–64
//     member automata — the one scan behind single- and multi-query
//     evaluation and EvalBool alike (payload: per-member end/finals
//     bitmaps),
//   - vsa's backward start-narrowing DFA (payload: per-class core-start
//     flags; uses seed injection),
//   - vsa's tag DFA, which the tagged simulation walks: its symbols are
//     (byte class, op-set) pairs, not byte classes (payload: whether a
//     member is suffix-universal, and the completing final op-set;
//     interns every window's seed at walk time),
//   - core's compiled splitter scanner (payload: per-class open/close/
//     wrap split events).
//
// Concurrency contract: New and Seed happen single-threaded at build
// time; afterwards any number of goroutines may read concurrently, and
// Intern may run at any time — clients intern start states at build
// time and seeds while others walk (it takes the write lock, like a
// fill). A reader loads the published
// state slice once per pass (Snapshot) and walks it with one array
// lookup per byte. Only writers lock, and a fill goes in one order:
// intern the target, append it, publish the longer slice, then store
// the row entry. A reader may therefore load a target id its own
// snapshot does not hold yet; clients send every transition that is a
// sentinel or lies past their snapshot to Resolve, which returns it
// with a fresh snapshot. A skip slot takes no lock: the first
// compare-and-swap wins. State ids are stable for the lifetime of the
// DFA — a client may save one (e.g. to resume a streamed scan at a
// chunk boundary) and walk on from it later with a newer snapshot.
package lazydfa

import (
	"sync"
	"sync/atomic"

	"repro/internal/automata"
)

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
	// Classes is the number of input symbols — byte equivalence classes,
	// or the tag DFA's (byte class, op-set) pairs — at most 256, since
	// Resolve takes a byte; every state's transition table has exactly
	// this many entries.
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
// immutable once the state is published; the rows and the skip slot are
// filled in lazily and never move, so every snapshot holding the state
// sees every fill.
type State[P any] struct {
	Set     []int32 // sorted member states of the underlying NFA
	Payload P
	trans   []atomic.Int32 // per byte class: successor id or a sentinel
	inj     []atomic.Int32 // per registered seed: cached injection target
	// skip is the state's skip set (see SkipGate): nil until a scan
	// builds it, then a set holding the state, or unskippable.
	skip *atomic.Pointer[SkipSet]
}

// Trans returns the cached transition on class c: a state id, or
// Unknown / Overflow (resolve with DFA.Resolve). Dead's transitions all
// loop on Dead.
func (s *State[P]) Trans(c uint8) int32 { return s.trans[c].Load() }

// DFA is one lazily determinized subset automaton. Readers walk a
// published snapshot of its states; a missing transition is filled in
// under the write lock and becomes visible to every later walk —
// clients keep the DFA alive across calls (e.g. through the engine's
// plan cache), so the cache warms once per automaton, not once per
// document.
type DFA[P any] struct {
	cfg    Config[P]
	states atomic.Pointer[[]State[P]]

	mu    sync.Mutex        // serializes writers; readers never take it
	sets  automata.SetTable // subset → state id; state id i is set i
	seeds [][]int32

	// resolve scratch, guarded by mu. collect, made once in New, is the
	// emit callback a fill hands Succ: a closure made per fill would be
	// a heap allocation per member.
	mark    []bool
	scratch []int32
	collect func(to int32)
}

// New returns a DFA containing only Dead (the interned empty subset).
// Register seeds and intern start states before the first read.
func New[P any](cfg Config[P]) *DFA[P] {
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = DefaultMaxStates
	}
	d := &DFA[P]{cfg: cfg, mark: make([]bool, cfg.States)}
	d.collect = func(to int32) {
		if !d.mark[to] {
			d.mark[to] = true
			d.scratch = append(d.scratch, to)
		}
	}
	d.sets.Intern(nil) // Dead
	d.publish([]State[P]{{
		Payload: cfg.Payload(nil),
		trans:   make([]atomic.Int32, cfg.Classes), // all-zero: loops on itself
		skip:    new(atomic.Pointer[SkipSet]),
	}})
	return d
}

// Snapshot returns the published states. Entries [0, len) are
// immutable apart from their rows; a transition or injection read from
// a row may name a state past len, which Resolve / Inject hand back
// with a snapshot that holds it.
func (d *DFA[P]) Snapshot() []State[P] { return *d.states.Load() }

func (d *DFA[P]) publish(st []State[P]) { d.states.Store(&st) }

// Intern returns the state id of a subset (sorted, duplicate-free),
// creating and paying its payload if it is new. Returns Overflow at the
// state bound. Clients use it for start states and for seeds met while
// walking; it is safe concurrently with walks. Interning the empty set
// returns Dead.
func (d *DFA[P]) Intern(set []int32) int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.intern(set)
}

// Seed registers a subset to be unioned into walking frontiers via
// Inject and returns its seed id. Injection targets are cached per
// (state, seed) pair. Seed is a build-time call: it must not run
// concurrently with any reader.
func (d *DFA[P]) Seed(set []int32) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seeds = append(d.seeds, set)
	st := d.Snapshot()
	for i := range st {
		st[i].inj = unknownRow(len(d.seeds))
	}
	return len(d.seeds) - 1
}

// Len returns the number of materialized states (including Dead).
func (d *DFA[P]) Len() int { return len(d.Snapshot()) }

// intern interns set under the write lock, copying it on a miss, and
// publishes the grown state slice before returning the new id.
func (d *DFA[P]) intern(set []int32) int32 {
	if to, ok := d.sets.Lookup(set); ok {
		return to
	}
	st := d.Snapshot()
	if len(st) >= d.cfg.MaxStates {
		return Overflow
	}
	to, _ := d.sets.Intern(set)
	stored := d.sets.Set(to) // reassigning set instead would make every caller's argument escape
	d.publish(append(st, State[P]{
		Set:     stored,
		Payload: d.cfg.Payload(stored),
		trans:   unknownRow(d.cfg.Classes),
		inj:     unknownRow(len(d.seeds)),
		skip:    new(atomic.Pointer[SkipSet]),
	}))
	return to
}

func unknownRow(n int) []atomic.Int32 {
	row := make([]atomic.Int32, n)
	for i := range row {
		row[i].Store(Unknown)
	}
	return row
}

// Resolve returns the transition (from, class) together with a snapshot
// that holds its target: a state id, Dead, or Overflow past the state
// bound. It is the one call behind a client's rare branch, whichever of
// its three cases brought the client there — an unresolved entry
// (filled here under the write lock), an id past the client's snapshot,
// or a sentinel. The resolved value is cached, including Overflow, so a
// DFA that hit the bound does not retry the construction on every byte.
func (d *DFA[P]) Resolve(from int32, class uint8) (int32, []State[P]) {
	if t := d.Snapshot()[from].trans[class].Load(); t != Unknown {
		// Loaded after t, the snapshot holds it: a fill publishes its
		// target before storing the row entry.
		return t, d.Snapshot()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.Snapshot()
	row := &st[from].trans[class]
	if t := row.Load(); t != Unknown {
		return t, st // resolved by a concurrent walk
	}
	d.scratch = d.scratch[:0]
	for _, q := range st[from].Set {
		d.cfg.Succ(q, class, d.collect)
	}
	for _, q := range d.scratch {
		d.mark[q] = false
	}
	sortInt32s(d.scratch)
	to := d.intern(d.scratch)
	row.Store(to)
	return to, d.Snapshot()
}

// Inject returns the state of subset(from) ∪ seed — a registered seed
// frontier merged into an already-walking one — with a snapshot that
// holds it, resolving and caching it on first use. Returns Overflow
// past the state bound.
func (d *DFA[P]) Inject(from int32, seed int) (int32, []State[P]) {
	if t := d.Snapshot()[from].inj[seed].Load(); t != Unknown {
		return t, d.Snapshot() // as in Resolve
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.Snapshot()
	row := &st[from].inj[seed]
	if t := row.Load(); t != Unknown {
		return t, st
	}
	d.scratch = mergeSortedInt32s(d.scratch[:0], st[from].Set, d.seeds[seed])
	to := d.intern(d.scratch)
	row.Store(to)
	return to, d.Snapshot()
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

// mergeSortedInt32s appends the merge of two sorted, duplicate-free
// slices, itself sorted and duplicate-free, to out.
func mergeSortedInt32s(out, a, b []int32) []int32 {
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
