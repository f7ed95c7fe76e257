package parallel

import (
	"time"

	"repro/internal/vsa"
)

// Record is the split executor's part of one document's record, with Eval
// the part its workers' sessions count. Each worker fills a copy of its own
// — two clock reads per chunk, integer adds per segment — which the run
// adds up after the workers join. A nil *Record counts nothing and reads
// no clock.
type Record struct {
	Eval vsa.Record
	// Runs counts executor runs (a document's record holds at most one)
	// and Workers is the run's worker count. Run sums their wall time
	// (workers started to workers joined, merge excluded) and Busy the
	// time workers spent executing chunks, across all workers — so
	// Busy / (Run × Workers) is the pool's busy fraction, and the gap to 1
	// is time lost to feed waits and ramp-down. Merge is the final merge
	// (concatenate + offset-sort + dedupe).
	Runs    uint64
	Workers int
	Run     time.Duration
	Busy    time.Duration
	Merge   time.Duration
	// Chunks and Segments count the units executed; EvalBytes the
	// segment text evaluated.
	Chunks    uint64
	Segments  uint64
	EvalBytes uint64
}
