package automata

import (
	"math/bits"
	"slices"
)

// SetTable interns int32 vectors — sorted sets of automaton states, the
// tagged simulation's frontier cells [state, assignment…], its emitted
// tuples — to dense ids 0, 1, 2, … in first-seen order. It is the one
// interning table of the tree: under Subsets, every lazy DFA
// (internal/lazydfa) and vsa's tagged simulation. Vectors are stored
// back to back and indexed by open addressing over version-stamped
// slots, so a lookup hashes the vector and allocates nothing, only a
// first sighting copies it, and Reset empties the table in O(1) by
// bumping the version. The zero value is an empty table. Not safe for
// concurrent use.
type SetTable struct {
	flat  []int32 // all vectors, back to back
	end   []int   // vector id is flat[end[id-1]:end[id]]
	slots []setSlot
	shift uint   // 64 − log2(len(slots)): the hash's top bits pick a slot
	ver   uint32 // slots stamped otherwise are empty
}

type setSlot struct {
	ver uint32
	id  int32
}

// Len returns the number of interned vectors.
func (t *SetTable) Len() int { return len(t.end) }

// Set returns an interned vector. The slice aliases the table until the
// next Reset; callers must not modify it.
func (t *SetTable) Set(id int32) []int32 {
	lo := 0
	if id > 0 {
		lo = t.end[id-1]
	}
	return t.flat[lo:t.end[id]:t.end[id]]
}

// Reset empties the table, sized for n vectors before it grows. It
// keeps its storage, so it costs O(1) unless the slots must grow (or,
// once per 2³² resets, the version wraps and they are cleared).
func (t *SetTable) Reset(n int) {
	t.flat, t.end = t.flat[:0], t.end[:0]
	size := 16
	for size < 4*n {
		size <<= 1
	}
	if len(t.slots) < size {
		t.resize(size)
		return
	}
	if t.ver++; t.ver == 0 { // wrapped: stale stamps could alias
		clear(t.slots)
		t.ver = 1
	}
}

// Intern returns the id of v, adding it when it is new, and whether it
// was. The argument is copied, so callers may reuse its storage.
func (t *SetTable) Intern(v []int32) (int32, bool) {
	if t.slots == nil {
		t.Reset(0)
	}
	s := t.find(v)
	if s.ver == t.ver {
		return s.id, false
	}
	id := int32(len(t.end))
	t.flat = append(t.flat, v...)
	t.end = append(t.end, len(t.flat))
	*s = setSlot{t.ver, id}
	if 2*len(t.end) > len(t.slots) {
		t.resize(2 * len(t.slots))
	}
	return id, true
}

// Lookup returns the id of v without adding it.
func (t *SetTable) Lookup(v []int32) (int32, bool) {
	if t.slots == nil {
		return 0, false
	}
	s := t.find(v)
	return s.id, s.ver == t.ver
}

// find returns the slot holding v, or the empty slot where it belongs.
func (t *SetTable) find(v []int32) *setSlot {
	h := uint64(14695981039346656037) ^ uint64(len(v))
	for _, x := range v {
		h = (h ^ uint64(uint32(x))) * 0x9e3779b97f4a7c15
	}
	mask := uint64(len(t.slots) - 1)
	for i := h >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ver != t.ver || slices.Equal(t.Set(s.id), v) {
			return s
		}
	}
}

// resize replaces the slots with size fresh ones and re-indexes every
// vector.
func (t *SetTable) resize(size int) {
	t.slots = make([]setSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.ver = 1
	for id := range t.end {
		*t.find(t.Set(int32(id))) = setSlot{t.ver, int32(id)}
	}
}

// Subsets is the on-the-fly subset construction of one NFA — the shared
// substrate of every subset construction outside the evaluators' lazy
// DFAs: Contains and Determinize here, and vsa's Determinize (Proposition
// 4.4, over the word NFA) and suffix-universality analysis. Subset states
// are interned in a SetTable; per id the table memoizes whether the
// subset contains a final state and, per symbol, the id of the successor
// subset, so a (subset, symbol) step is computed at most once per run
// however many product nodes or pairs revisit it. Successors are
// gathered with a reusable mark array, not a map.
//
// The table imposes no size limit of its own: clients bound what *they*
// explore (product nodes for Contains, subset states for Explore) and
// compare Len against their budget after a Step.
//
// It is not internal/lazydfa, though both intern their subsets in a
// SetTable: that one is the evaluators' DFA — byte classes capped at 256
// (uint8), payloads, seeds, states published to lock-free readers and a
// MaxStates overflow state, all on a path that is hot per document byte.
// A decision run has an alphabet of atoms plus operation sets, one
// goroutine, no bound of its own and is thrown away with its verdict.
type Subsets struct {
	nfa   *NFA
	sets  SetTable
	final []bool
	trans []int32 // trans[id*NumSymbols+sym]: successor id, or unknownStep
	mark  []bool
	buf   []int32
}

const unknownStep int32 = -1

// NewSubsets returns an empty subset table over nfa. The automaton must
// not change while the table is in use. The tables start sized for as
// many subsets as nfa has states, at most presize, so that a large
// automaton whose walk stops early does not pay for rows it never fills.
func NewSubsets(nfa *NFA) *Subsets {
	n := min(nfa.Len(), presize)
	t := &Subsets{nfa: nfa, sets: SetTable{flat: make([]int32, 0, n), end: make([]int, 0, n)}, final: make([]bool, 0, n), trans: make([]int32, 0, n*nfa.NumSymbols), mark: make([]bool, nfa.Len())}
	t.sets.Reset(n)
	return t
}

const presize = 256

// Len returns the number of subset states materialized so far.
func (t *Subsets) Len() int { return t.sets.Len() }

// Set returns the NFA states of a subset, sorted; it aliases the table.
func (t *Subsets) Set(id int32) []int32 { return t.sets.Set(id) }

// Final reports whether the subset contains a final state.
func (t *Subsets) Final(id int32) bool { return t.final[id] }

// Start returns the id of the start subset (the NFA's start states).
func (t *Subsets) Start() int32 {
	buf := t.buf[:0]
	for _, s := range t.nfa.Starts {
		buf = append(buf, int32(s))
	}
	slices.Sort(buf)
	t.buf = slices.Compact(buf)
	return t.Intern(t.buf)
}

// Step returns the id of the subset reached from id on sym (the empty
// subset when no member has such an edge), computing and memoizing it
// on first use.
func (t *Subsets) Step(id int32, sym int) int32 {
	slot := int(id)*t.nfa.NumSymbols + sym
	if to := t.trans[slot]; to != unknownStep {
		return to
	}
	buf := t.buf[:0]
	for _, q := range t.sets.Set(id) {
		for _, e := range t.nfa.Adj[q] {
			if e.Sym == sym && !t.mark[e.To] {
				t.mark[e.To] = true
				buf = append(buf, int32(e.To))
			}
		}
	}
	for _, q := range buf {
		t.mark[q] = false
	}
	slices.Sort(buf)
	t.buf = buf
	to := t.Intern(buf)
	t.trans[slot] = to
	return to
}

// Intern returns the id of a subset (sorted, duplicate-free NFA states),
// adding it when new, so that a walk can start from a subset other than
// Start's. The argument is copied.
func (t *Subsets) Intern(set []int32) int32 {
	id, added := t.sets.Intern(set)
	if added {
		final := false
		for _, q := range set {
			final = final || t.nfa.Final[q]
		}
		t.final = append(t.final, final)
		for i := 0; i < t.nfa.NumSymbols; i++ {
			t.trans = append(t.trans, unknownStep)
		}
	}
	return id
}

// Explore materializes every subset reachable from the start subset, in
// breadth-first order — ids are assigned in exactly that order, the
// start subset is 0 — and fills every successor row. It fails with
// ErrTooLarge as soon as more than limit subsets exist.
func (t *Subsets) Explore(limit int) error {
	t.Start()
	for id := int32(0); int(id) < t.Len(); id++ {
		for sym := 0; sym < t.nfa.NumSymbols; sym++ {
			t.Step(id, sym)
			if t.Len() > limit {
				return ErrTooLarge
			}
		}
	}
	return nil
}
