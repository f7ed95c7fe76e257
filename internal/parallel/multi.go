package parallel

import (
	"context"

	"repro/internal/span"
	"repro/internal/vsa"
)

// MultiEval evaluates a fused multi-query set over the segments with the
// given number of workers and returns one relation per member query, in
// member order — each byte-identical to SplitEval of that member alone
// over the same segments. Segments are chunked onto the work-stealing
// deques exactly like SplitEval; each worker runs the fused automaton
// per segment and demultiplexes into per-query arena-backed relations,
// merged and offset-sorted per query at the end, so the results do not
// depend on the worker count or steal schedule. workers ≤ 0 means
// runtime.GOMAXPROCS(0).
func MultiEval(m *vsa.Multi, segments []Segment, workers int) []*span.Relation {
	rels, _ := MultiEvalCtx(context.Background(), m, segments, Options{Workers: workers})
	return rels
}

// MultiEvalCtx is MultiEval with cancellation and Options. Like
// SplitEvalCtx, workers stop between chunks when ctx fires and the
// partial per-query relations accumulated so far are returned (sorted
// and deduplicated) together with ctx's error.
func MultiEvalCtx(ctx context.Context, m *vsa.Multi, segments []Segment, opts Options) ([]*span.Relation, error) {
	grain := opts.grain(len(segments))
	// Destinations index member queries, not documents: every chunk is
	// dealt with dest 0 and the fused evaluator demultiplexes into the
	// accumulator's per-query relations directly.
	return runChunks(ctx, multiEval{m}, opts.workers(), m.Len(), grain, chunked(0, segments, grain, nil), opts.Metrics), ctx.Err()
}
