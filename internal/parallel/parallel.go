// Package parallel implements the split-then-distribute evaluation that
// motivates the paper (Section 1): once a spanner is known to be
// split-correct for a splitter, it can be evaluated on the splitter's
// segments in parallel (or the segments can be scheduled as many small
// tasks), and the shifted union of the results equals the direct
// evaluation. The engine is an executor (executor.go) whose workers take
// chunks of segments one at a time from one shared source — a cursor
// over the dealt chunks, or the caller's feed — and every worker
// accumulates shifted result tuples into its own arena-backed relation,
// merged and offset-sorted once at the end. Results are therefore
// deterministic — byte-identical across worker counts and however the
// chunks fell to the workers — and no relation is allocated per segment
// or per batch.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/span"
	"repro/internal/vsa"
)

// Sequential evaluates p directly on the document — the baseline the
// split evaluators are measured against and fuzz-checked to agree with.
func Sequential(p *vsa.Automaton, doc string) *span.Relation {
	return p.Eval(doc)
}

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

// Options configures the context-aware split evaluators. The zero value
// selects GOMAXPROCS workers and an adaptive scheduling grain.
type Options struct {
	// Workers is the number of evaluation goroutines; ≤ 0 means
	// runtime.GOMAXPROCS(0). The result does not depend on it.
	Workers int
	// Batch is the scheduling grain: the number of segments grouped into
	// one dealt chunk. Larger grains amortize scheduling on
	// segment-heavy splitters (N-grams, tokens); smaller grains balance
	// skewed segments more finely. ≤ 0 selects an adaptive grain of
	// roughly 32 chunks per worker. The result does not depend on it.
	Batch int
	// Metrics, when non-nil, receives the executor's scheduling
	// statistics (run, chunk and segment counts, worker busy time, merge
	// latency). nil disables all measurement. The result does not
	// depend on it.
	Metrics *ExecMetrics
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
	g := n / (o.workers() * 32)
	if g < 1 {
		g = 1
	}
	if g > 1024 {
		g = 1024
	}
	return g
}

// streamGrain is the grain of CollectionEvalSplit's producer: it sends
// each document's segments as chunks of this many, so a long document
// spreads across the pool and cancellation is noticed between them.
// SplitEvalBatches evaluates each batch it receives as one chunk; the
// engine's streamed route sends one segment per feed — the feed's
// chunk, evaluated with P — so there the feed is the grain.
const streamGrain = 16

// SplitEval evaluates ps on every segment using the given number of
// workers and returns the shifted, deduplicated union — the spanner
// (P_S ∘ S)(d) when the segments come from S. workers ≤ 0 means
// runtime.GOMAXPROCS(0). The result is sorted and deduplicated, and is
// byte-identical for every worker count (determinism does not depend on
// which worker evaluates which chunk).
func SplitEval(ps *vsa.Automaton, segments []Segment, workers int) *span.Relation {
	rel, _ := SplitEvalCtx(context.Background(), ps, segments, Options{Workers: workers})
	return rel
}

// SplitEvalCtx is SplitEval with cancellation and an explicit grain: the
// segments are cut into chunks up front and handed out in order, workers
// stop between chunks as soon as ctx is cancelled, and ctx's error is
// returned together with whatever partial relation the workers had
// accumulated (still sorted and deduplicated). With a never-cancelled
// context the result equals SplitEval's.
func SplitEvalCtx(ctx context.Context, ps *vsa.Automaton, segments []Segment, opts Options) (*span.Relation, error) {
	grain := opts.grain(len(segments))
	rels := runChunks(ctx, vsa.NewMulti(ps), opts.workers(), 1, chunked(0, segments, grain, nil), opts.Metrics)
	return rels[0], ctx.Err()
}

// SplitEvalBatches evaluates ps on batches of segments arriving on a
// channel — the streaming form used by the extraction engine, where the
// splitter discovers segments incrementally while earlier segments are
// already being evaluated. Idle workers block on the channel, so its
// capacity bounds the queued work and sends into batches block once the
// pool is saturated — the backpressure the serving daemon relies on to
// throttle ingestion. Each received batch is one chunk, evaluated by the
// worker that received it. The merged relation is deduplicated and
// sorted, so the result is deterministic regardless of arrival order and
// of which worker took which batch. On cancellation the workers drain
// nothing further and ctx's error is returned with the partial result.
// Only opts.Workers and opts.Metrics apply: the batch is the grain.
func SplitEvalBatches(ctx context.Context, ps *vsa.Automaton, batches <-chan []Segment, opts Options) (*span.Relation, error) {
	next := func() (chunk, bool) {
		select {
		case b, ok := <-batches:
			if !ok {
				return chunk{}, false
			}
			return chunk{dest: 0, segs: b}, true
		case <-ctx.Done():
			// Also unblocks workers whose producer is stalled (e.g. a
			// hung reader that will never close batches).
			return chunk{}, false
		}
	}
	rels := newExecutor(ctx, vsa.NewMulti(ps), opts.workers(), 1, next, opts.Metrics).run()
	return rels[0], ctx.Err()
}

// CollectionEval evaluates p on every document of a collection (the
// Spark scenario of Section 1) with the given number of workers and
// returns one relation per document, in order. The documents are
// arbitrary, independent inputs — no splitter is involved and nothing
// about them needs to be "pre-split"; each is evaluated whole. Each
// document is one chunk, and a worker takes the next document as soon as
// it finishes one, so long documents do not queue behind each other on
// one worker. Each returned relation
// is sorted and deduplicated, identical to p.Eval on that document.
// (To additionally split each document into segments for finer
// scheduling, use CollectionEvalSplit.)
func CollectionEval(p *vsa.Automaton, docsIn []string, workers int) []*span.Relation {
	workers = Options{Workers: workers}.workers()
	chunks := make([]chunk, len(docsIn))
	for i, d := range docsIn {
		chunks[i] = chunk{dest: i, segs: []Segment{{Span: span.Span{Start: 1, End: len(d) + 1}, Text: d}}}
	}
	return runChunks(context.Background(), vsa.NewMulti(p), workers, len(docsIn), chunks, nil)
}

// CollectionEvalSplit evaluates a split-correct plan over a collection:
// each document is pre-split with splitFn and the segments of all
// documents form the task pool — the paper's observation that splitting
// helps even when the input is already a collection, by giving the
// scheduler many small tasks. Results are per-document relations, each
// sorted and deduplicated. A producer goroutine splits documents on
// demand and feeds the bounded channel the idle workers block on, in
// chunks of streamGrain segments, so memory stays O(workers) chunks plus
// one document's segments regardless of collection size, and a long
// document spreads across the pool instead of serializing on one worker.
func CollectionEvalSplit(ps *vsa.Automaton, docsIn []string, splitFn func(string) []span.Span, workers int) []*span.Relation {
	workers = Options{Workers: workers}.workers()
	feed := make(chan chunk, workers)
	go func() {
		// Producer: split one document at a time; the bounded feed
		// channel throttles splitting to the pool's consumption rate.
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

// Measurement is one timed run of an experiment configuration.
type Measurement struct {
	Name       string        // experiment label, echoed in errors
	Sequential time.Duration // direct (or whole-document) evaluation time
	Split      time.Duration // split-then-distribute evaluation time
	Speedup    float64       // Sequential / Split
	Tuples     int           // result size, summed over documents
}

// ErrSplitMismatch is returned by Measure and MeasureCollection when split
// and sequential evaluation disagree — the defining symptom of running a
// plan that is not split-correct for its splitter. The Measurement
// returned alongside it still carries the timings, so callers can report
// the failing configuration.
var ErrSplitMismatch = errors.New("parallel: split evaluation disagrees with sequential evaluation; the spanner is not split-correct for this splitter")

// Measure times sequential evaluation of p against split evaluation of ps
// over the segments, checks that the outputs agree, and reports the
// speedup. The comparison is the experiment of Section 1. If the outputs
// disagree the timings are returned together with an error wrapping
// ErrSplitMismatch — a library must not panic on data-dependent input.
func Measure(name string, p, ps *vsa.Automaton, doc string, segments []Segment, workers int) (Measurement, error) {
	t0 := time.Now()
	seq := Sequential(p, doc)
	seqDur := time.Since(t0)
	t1 := time.Now()
	par := SplitEval(ps, segments, workers)
	parDur := time.Since(t1)
	seq.Dedupe()
	m := Measurement{
		Name:       name,
		Sequential: seqDur,
		Split:      parDur,
		Speedup:    float64(seqDur) / float64(parDur),
		Tuples:     seq.Len(),
	}
	if !seq.Equal(par) {
		return m, fmt.Errorf("%s: %w", name, ErrSplitMismatch)
	}
	return m, nil
}

// MeasureCollection times whole-document scheduling against
// split-segment scheduling on a document collection with the same worker
// count, mirroring the paper's Spark experiments (Reuters, Amazon). Like
// Measure, a disagreement between the two schedules is reported as an
// error wrapping ErrSplitMismatch rather than a panic.
func MeasureCollection(name string, p, ps *vsa.Automaton, docsIn []string, splitFn func(string) []span.Span, workers int) (Measurement, error) {
	t0 := time.Now()
	whole := CollectionEval(p, docsIn, workers)
	wholeDur := time.Since(t0)
	t1 := time.Now()
	split := CollectionEvalSplit(ps, docsIn, splitFn, workers)
	splitDur := time.Since(t1)
	m := Measurement{
		Name:       name,
		Sequential: wholeDur,
		Split:      splitDur,
		Speedup:    float64(wholeDur) / float64(splitDur),
	}
	for i := range whole {
		whole[i].Dedupe()
		aligned, err := split[i].Project(whole[i].Vars)
		if err != nil {
			return m, fmt.Errorf("%s: document %d: %w", name, i, err)
		}
		if !aligned.Equal(whole[i]) {
			return m, fmt.Errorf("%s: document %d: %w", name, i, ErrSplitMismatch)
		}
		m.Tuples += whole[i].Len()
	}
	return m, nil
}
