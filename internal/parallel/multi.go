package parallel

import (
	"context"

	"repro/internal/span"
	"repro/internal/vsa"
)

// MultiEval evaluates a fused multi-query set over the segments with the
// given number of workers and returns one relation per member query, in
// member order — each byte-identical to SplitEval of that member alone
// over the same segments. Segments are chunked and handed out exactly
// like SplitEval; each worker runs the fused automaton per segment and
// demultiplexes into per-query arena-backed relations, merged and
// offset-sorted per query at the end, so the results do not depend on
// the worker count or on which worker took which chunk. workers ≤ 0 means
// runtime.GOMAXPROCS(0).
func MultiEval(m *vsa.Multi, segments []Segment, workers int) []*span.Relation {
	opts := Options{Workers: workers}
	grain := opts.grain(len(segments))
	// One destination: every chunk is dealt with dest 0, and the relation
	// index is the member query.
	return runChunks(context.Background(), m, opts.workers(), 1, chunked(0, segments, grain, nil), nil)
}
