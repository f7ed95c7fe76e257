package automata

import "slices"

// SetTable interns sets of int32 — sorted and duplicate-free, typically
// sets of automaton states — to dense ids 0, 1, 2, … in first-seen
// order. The key is the set's little-endian bytes (as internal/lazydfa
// keys its states), so a lookup hashes 4·|set| bytes and allocates
// nothing; only a first sighting copies the set. The zero value is an
// empty table. Not safe for concurrent use: a decision run is one
// goroutine's throw-away state.
type SetTable struct {
	index map[string]int32
	flat  []int32 // all member lists, back to back
	end   []int   // set id is flat[end[id-1]:end[id]]
	key   []byte  // scratch
}

// Len returns the number of interned sets.
func (t *SetTable) Len() int { return len(t.end) }

// Set returns the members of an interned set, sorted. The slice aliases
// the table; callers must not modify it.
func (t *SetTable) Set(id int32) []int32 {
	lo := 0
	if id > 0 {
		lo = t.end[id-1]
	}
	return t.flat[lo:t.end[id]:t.end[id]]
}

// Intern returns the id of set (sorted, duplicate-free), adding it when
// it is new. The argument is copied, so callers may reuse its storage.
func (t *SetTable) Intern(set []int32) int32 {
	key := t.key[:0]
	for _, q := range set {
		key = append(key, byte(q), byte(q>>8), byte(q>>16), byte(q>>24))
	}
	t.key = key
	if id, ok := t.index[string(key)]; ok {
		return id
	}
	if t.index == nil {
		t.index = map[string]int32{}
	}
	id := int32(len(t.end))
	t.index[string(key)] = id
	t.flat = append(t.flat, set...)
	t.end = append(t.end, len(t.flat))
	return id
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
// It is not internal/lazydfa: that one is the evaluators' DFA — byte
// classes capped at 256 (uint8), payloads, seeds, states published to
// lock-free readers and a MaxStates overflow state, all on a path that
// is hot per document byte.
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
	sets := SetTable{index: make(map[string]int32, n), flat: make([]int32, 0, n), end: make([]int, 0, n)}
	return &Subsets{nfa: nfa, sets: sets, final: make([]bool, 0, n), trans: make([]int32, 0, n*nfa.NumSymbols), mark: make([]bool, nfa.Len())}
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
	id := t.sets.Intern(set)
	if int(id) == len(t.final) {
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
