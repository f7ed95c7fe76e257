// Package parallel implements the split-then-distribute evaluation that
// motivates the paper (Section 1): once a spanner is known to be
// split-correct for a splitter, it can be evaluated on the splitter's
// segments in parallel (or the segments can be scheduled as many small
// tasks), and the shifted union of the results equals the direct
// evaluation. There is one executor (executor.go) and one run over it,
// Run: its workers take chunks of segments one at a time from one
// source — the segments dealt in grain-sized chunks from an atomic
// cursor (Dealt), or pulled from the caller's function one batch at a
// time (Pulled) — and every worker accumulates shifted result tuples into
// its own arena-backed relation, merged and offset-sorted once at the
// end. Results are therefore deterministic — byte-identical across worker
// counts and however the chunks fell to the workers — and no relation is
// allocated per segment or per batch. SplitEval, MultiEval and the two collection
// evaluators are calls of the same executor.
package parallel

import (
	"context"
	"runtime"

	"repro/internal/span"
	"repro/internal/vsa"
)

// Segment is a unit of split work: a span of the original document (or of
// the virtual concatenation of a collection) and its text.
type Segment struct {
	// Span locates Text in the enclosing document; result tuples of the
	// segment are shifted by it into document coordinates.
	Span span.Span
	// Text is the segment's content, Span.In(document).
	Text string
}

// SegmentsOf adapts pre-computed spans of doc into work units.
func SegmentsOf(doc string, spans []span.Span) []Segment {
	out := make([]Segment, len(spans))
	for i, sp := range spans {
		out[i] = Segment{sp, sp.In(doc)}
	}
	return out
}

// Options configures a run. The zero value selects GOMAXPROCS workers
// and an adaptive scheduling grain.
type Options struct {
	// Workers is the number of evaluation goroutines; ≤ 0 means
	// runtime.GOMAXPROCS(0). The result does not depend on it.
	Workers int
	// Batch is the scheduling grain of a dealt source: the number of
	// segments grouped into one chunk. Larger grains amortize scheduling
	// on segment-heavy splitters (N-grams, tokens); smaller grains
	// balance skewed segments more finely. ≤ 0 selects an adaptive grain
	// of roughly 32 chunks per worker. A pulled source's batches are its
	// chunks, so it ignores Batch. The result does not depend on it.
	Batch int
	// Record, when non-nil, receives what the run did (see Record):
	// worker count, run, busy and merge times, chunk, segment and byte
	// counts, and its sessions' evaluation counts. nil disables all
	// measurement. The result does not depend on it.
	Record *Record
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// grain resolves the chunk size for n segments: an explicit Batch wins;
// otherwise aim for ~32 chunks per worker, which keeps per-chunk
// scheduling cost (one atomic add) negligible while leaving plenty of
// chunks to even out skewed match density.
func (o Options) grain(n int) int {
	if o.Batch > 0 {
		return o.Batch
	}
	return min(max(n/(o.workers()*32), 1), 1024)
}

// A Source is where a run's workers take their chunks from. Dealt and
// Pulled build the two kinds.
type Source struct {
	segs []Segment
	pull func() ([]Segment, bool)
}

// Dealt is the source that cuts segs into chunks of the run's grain and
// hands them out in order from one atomic cursor. A run over it starts
// no more workers than it has chunks.
func Dealt(segs []Segment) Source { return Source{segs: segs} }

// Pulled is the source whose batches next returns, until its first false:
// the streaming form used by the extraction engine, where the worker that
// pulls reads and cuts the next part of the document while the others
// evaluate earlier ones. Each batch is one chunk, evaluated by the worker
// that pulled it. Run calls next from one worker at a time, under a mutex,
// and never after its first false; only idle workers pull, so a saturated
// pool stops pulling — the daemon's backpressure. A next that can block
// must return once the run's context is done.
func Pulled(next func() ([]Segment, bool)) Source { return Source{pull: next} }

// Run evaluates m on every chunk of src and returns one relation per
// member query, in member order: the shifted, deduplicated and sorted
// union — (P_S ∘ S)(d) when the segments come from S. The result is
// byte-identical for every worker count, grain and arrival order.
// Workers stop between chunks as soon as ctx is done, and ctx's error is
// returned together with whatever partial relations they had
// accumulated (still sorted and deduplicated).
func Run(ctx context.Context, m *vsa.Multi, src Source, opts Options) ([]*span.Relation, error) {
	var x *executor
	if src.pull != nil {
		x = newExecutor(ctx, m, opts.workers(), 1, oneAtATime(func() (chunk, bool) {
			b, ok := src.pull()
			return chunk{segs: b}, ok
		}), opts.Record)
	} else {
		chunks := chunked(0, src.segs, opts.grain(len(src.segs)), nil)
		x = newDealt(ctx, m, opts.workers(), 1, chunks, opts.Record)
	}
	return x.run(), ctx.Err()
}

// streamGrain is the grain of CollectionEvalSplit's producer: it sends
// each document's segments as chunks of this many, so a long document
// spreads across the pool.
const streamGrain = 16

// SplitEval evaluates ps on every segment using the given number of
// workers (≤ 0 means runtime.GOMAXPROCS(0)) and returns the shifted,
// deduplicated union: Run of the Multi of one over the dealt segments.
func SplitEval(ps *vsa.Automaton, segments []Segment, workers int) *span.Relation {
	return MultiEval(vsa.NewMulti(ps), segments, workers)[0]
}

// MultiEval evaluates a fused multi-query set over the segments with the
// given number of workers and returns one relation per member query, in
// member order — each byte-identical to SplitEval of that member alone
// over the same segments: Run over the dealt segments.
func MultiEval(m *vsa.Multi, segments []Segment, workers int) []*span.Relation {
	rels, _ := Run(context.Background(), m, Dealt(segments), Options{Workers: workers})
	return rels
}

// CollectionEval evaluates p on every document of a collection (the
// Spark scenario of Section 1) with the given number of workers and
// returns one relation per document, in order. The documents are
// arbitrary, independent inputs — no splitter is involved; each is
// evaluated whole. Each document is one dealt chunk, so long documents
// do not queue behind each other on one worker. Each returned relation
// is sorted and deduplicated, identical to p.Eval on that document.
// (To additionally split each document into segments for finer
// scheduling, use CollectionEvalSplit.)
func CollectionEval(p *vsa.Automaton, docsIn []string, workers int) []*span.Relation {
	chunks := make([]chunk, len(docsIn))
	for i, d := range docsIn {
		chunks[i] = chunk{dest: i, segs: []Segment{{Span: span.Span{Start: 1, End: len(d) + 1}, Text: d}}}
	}
	return newDealt(context.Background(), vsa.NewMulti(p), Options{Workers: workers}.workers(), len(docsIn), chunks, nil).run()
}

// CollectionEvalSplit evaluates a split-correct plan over a collection:
// each document is pre-split with splitFn and the segments of all
// documents form the task pool — the paper's observation that splitting
// helps even when the input is already a collection, by giving the
// scheduler many small tasks. Results are per-document relations, each
// sorted and deduplicated. A producer goroutine splits documents on
// demand and feeds the bounded channel the idle workers take chunks from,
// in chunks of streamGrain segments, so memory stays O(workers) chunks
// plus one document's segments regardless of collection size, and a long
// document spreads across the pool instead of serializing on one worker.
// Splitting in the workers' own pull, under one lock, measured 14–20 %
// slower on E4 and E5 (2 vCPUs, 5 workers): at every document boundary
// the other workers wait for the split.
func CollectionEvalSplit(ps *vsa.Automaton, docsIn []string, splitFn func(string) []span.Span, workers int) []*span.Relation {
	workers = Options{Workers: workers}.workers()
	feed := make(chan chunk, workers)
	go func() {
		defer close(feed)
		var cs []chunk
		for i, d := range docsIn {
			cs = chunked(i, SegmentsOf(d, splitFn(d)), streamGrain, cs[:0])
			for _, c := range cs {
				feed <- c
			}
		}
	}()
	next := func() (chunk, bool) {
		c, ok := <-feed
		return c, ok
	}
	return newExecutor(context.Background(), vsa.NewMulti(ps), workers, len(docsIn), next, nil).run()
}
