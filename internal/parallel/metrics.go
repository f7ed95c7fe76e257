package parallel

import (
	"time"

	"repro/internal/obs"
)

// ExecMetrics collects the split executor's scheduling statistics
// across runs. All fields are cumulative and lock-free. Recording is
// designed to stay off the per-segment hot path: each worker
// accumulates into a plain (unshared) workerStats while it runs — two
// clock reads per chunk, simple integer adds per segment — and flushes
// to these atomics once, when it exits. An executor run with a nil
// *ExecMetrics records nothing and times nothing.
type ExecMetrics struct {
	// Runs counts executor runs; RunNS sums their wall time (workers
	// started to workers joined, merge excluded). BusyNS sums the time
	// workers spent executing chunks, across all workers — so
	// BusyNS / (RunNS × workers) is the pool's busy fraction, and the
	// gap to 1 is time lost to feed waits and ramp-down.
	Runs   obs.Counter
	RunNS  obs.Counter
	BusyNS obs.Counter
	// Chunks and Segments count the units executed; EvalBytes the
	// segment text evaluated.
	Chunks    obs.Counter
	Segments  obs.Counter
	EvalBytes obs.Counter
	// MergeNS is the per-run final merge (concatenate + offset-sort +
	// dedupe) latency histogram, in nanoseconds.
	MergeNS obs.Histogram
}

// workerStats is one worker's private tally, flushed to the shared
// ExecMetrics atomics exactly once at worker exit.
type workerStats struct {
	chunks, segments, bytes uint64
	busy                    time.Duration
}

func (m *ExecMetrics) flush(ws *workerStats) {
	m.Chunks.Add(ws.chunks)
	m.Segments.Add(ws.segments)
	m.EvalBytes.Add(ws.bytes)
	m.BusyNS.AddDuration(ws.busy)
}
