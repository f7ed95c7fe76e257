package span

// TupleArena carves Tuples out of shared slabs, so that a worker
// accumulating many small tuples (the split-evaluation executor appends
// one per extraction result) performs one slab allocation per few
// thousand spans instead of one allocation per tuple. Slabs grow
// geometrically — the first holds tupleArenaMinSlab spans, each later one
// twice the last up to tupleArenaMaxSlab — so a worker that sees a
// handful of results allocates a kilobyte, not the steady-state slab.
// The zero value is ready to use.
//
// Tuples returned by Tuple remain valid for the lifetime of the arena's
// slabs; the garbage collector keeps a slab alive as long as any tuple
// carved from it is reachable, so an arena can be dropped as soon as its
// tuples have been handed off (e.g. appended to a Relation).
//
// A TupleArena is not safe for concurrent use; give each worker its own.
type TupleArena struct {
	slab []Span
	next int // size of the next slab in spans; 0 means tupleArenaMinSlab
}

// Slab sizes in spans, 16 bytes each: the first slab is 1 KiB, the
// steady-state one 64 KiB — big enough to amortize allocation. A worker
// that does see many results reaches it after six smaller slabs
// (4 032 spans).
const (
	tupleArenaMinSlab = 64
	tupleArenaMaxSlab = 4096
)

// Tuple returns a zeroed n-span tuple carved from the current slab,
// starting a fresh slab when fewer than n spans remain. The returned
// slice has capacity exactly n, so appending to it never overwrites a
// neighboring tuple.
func (a *TupleArena) Tuple(n int) Tuple {
	if cap(a.slab)-len(a.slab) < n {
		size := max(a.next, tupleArenaMinSlab, n)
		a.next = min(2*size, tupleArenaMaxSlab)
		a.slab = make([]Span, 0, size)
	}
	lo := len(a.slab)
	a.slab = a.slab[:lo+n]
	return Tuple(a.slab[lo : lo+n : lo+n])
}
