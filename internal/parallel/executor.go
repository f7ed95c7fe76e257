package parallel

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/span"
	"repro/internal/vsa"
)

// This file implements the split-evaluation executor that backs Run and
// the two collection evaluators. Its workers share one chunk source:
// a worker takes the next chunk, evaluates it, and comes back for
// another, so a worker that drew cheap chunks simply draws more of them.
// Dealt runs hand the chunks out in order from an atomic cursor; pulled
// runs call the caller's function, one worker at a time; and
// CollectionEvalSplit's workers receive from its producer's channel.
// Results never
// cross a channel: each worker appends shifted tuples into its own
// arena-backed relation accumulator (through its vsa.MultiSession), and
// the per-worker accumulators are concatenated and offset-sorted once at
// the end — the merged relation is therefore byte-identical no matter
// which worker took which chunk.
//
// What the workers evaluate is always a vsa.Multi: a single spanner is
// the Multi of one. A chunk's destination (a document of a collection,
// or 0) and a member query together index the relation a tuple lands
// in: destination × members + member.

// chunk is the executor's unit of scheduling: a run of segments bound
// for one destination relation. dest indexes the executor's result
// slice (always 0 for the single-document evaluators; the document
// index for the collection evaluators).
type chunk struct {
	dest int
	segs []Segment
}

// executor is one split-evaluation run: a set of workers, the chunk
// source they share and their accumulators.
type executor struct {
	multi *vsa.Multi
	ctx   context.Context
	ndest int

	// next hands out the run's next chunk, or ok=false when there is
	// none left: the dealt slice is used up, or the pull came up dry.
	// Workers call it concurrently.
	next func() (chunk, bool)

	// rec, when non-nil, receives this run's record, which the workers
	// count into copies in their accumulators (see Record).
	rec *Record

	accs []accumulator
}

// accumulator is one worker's private result store: per-relation
// results whose tuples are carved from a shared per-worker arena. Only
// the owning worker touches it until the final merge, which runs
// strictly after all workers exit.
type accumulator struct {
	multi *vsa.Multi
	arena span.TupleArena
	rels  []*span.Relation // lazily created, indexed by destination × members + member
	dest  int              // the destination of the chunk being evaluated
	rec   Record           // the worker's copy of the run's record
}

// rel returns member i's relation for the current destination.
func (a *accumulator) rel(i int) *span.Relation {
	k := a.dest*a.multi.Len() + i
	if a.rels[k] == nil {
		a.rels[k] = span.NewRelation(a.multi.Member(i).Vars...)
	}
	return a.rels[k]
}

// newExecutor prepares an executor with nw workers evaluating multi into
// ndest destinations, taking their chunks from next. multi is prepared
// so the workers share warm evaluation caches instead of racing to build
// them.
func newExecutor(ctx context.Context, multi *vsa.Multi, nw, ndest int, next func() (chunk, bool), rec *Record) *executor {
	multi.Prepare()
	x := &executor{
		multi: multi,
		ctx:   ctx,
		ndest: ndest,
		next:  next,
		rec:   rec,
		accs:  make([]accumulator, nw),
	}
	for i := range x.accs {
		x.accs[i] = accumulator{multi: multi, rels: make([]*span.Relation, ndest*multi.Len())}
	}
	return x
}

// newDealt prepares a dealt run: up to workers workers take chunks in
// order from one atomic cursor. The chunks are independent and already
// cut to the grain, so handing them out one at a time balances skewed
// ones as they finish. A dealt run starts no more workers than it has
// chunks — one beyond that could only come up empty.
func newDealt(ctx context.Context, multi *vsa.Multi, workers, ndest int, chunks []chunk, rec *Record) *executor {
	var cursor atomic.Int64
	next := func() (chunk, bool) {
		i := cursor.Add(1) - 1
		if i >= int64(len(chunks)) {
			return chunk{}, false
		}
		return chunks[i], true
	}
	return newExecutor(ctx, multi, min(workers, len(chunks)), ndest, next, rec)
}

// oneAtATime serializes a pull: workers call next one at a time under a
// mutex — the pull's one point of synchronisation, as the cursor is a
// dealt run's — and the source stays dry after next's first false.
func oneAtATime(next func() (chunk, bool)) func() (chunk, bool) {
	var mu sync.Mutex
	dry := false
	return func() (chunk, bool) {
		mu.Lock()
		defer mu.Unlock()
		if dry {
			return chunk{}, false
		}
		c, ok := next()
		dry = !ok
		return c, ok
	}
}

// run drives the workers to completion and merges. The calling goroutine
// is worker 0 and only the others are spawned, so a run with one worker —
// one dealt chunk, a one-worker budget — starts no goroutine at all, and
// a run with none (a dealt run with nothing dealt) goes straight to the
// merge. The merged relations are deduplicated and offset-sorted, one per
// destination and member — deterministic regardless of which worker took
// which chunk. On cancellation the workers stop between chunks and
// whatever they had accumulated is merged and returned (the
// partial-result contract of Run). With a record, the run adds its
// workers' copies into it once they have joined.
func (x *executor) run() []*span.Relation {
	var t0 time.Time
	if x.rec != nil {
		t0 = time.Now()
	}
	var wg sync.WaitGroup
	for id := 1; id < len(x.accs); id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x.worker(id)
		}()
	}
	if len(x.accs) > 0 {
		x.worker(0)
	}
	wg.Wait()
	if x.rec == nil {
		return x.merge()
	}
	tm := time.Now()
	rels := x.merge()
	x.rec.Runs++
	x.rec.Workers = len(x.accs)
	x.rec.Run += tm.Sub(t0)
	x.rec.Merge += time.Since(tm)
	for i := range x.accs {
		w := &x.accs[i].rec
		x.rec.Eval.Add(&w.Eval)
		x.rec.Busy += w.Busy
		x.rec.Chunks += w.Chunks
		x.rec.Segments += w.Segments
		x.rec.EvalBytes += w.EvalBytes
	}
	return rels
}

// worker is one scheduling loop: check the context, take the next chunk,
// evaluate it on the worker's session into its accumulator, repeat; exit
// when the source is dry or the context is done. The loop head is the one
// place a worker looks at the context, so cancellation is honored between
// chunks and the chunk in flight — at most the grain's worth of segments
// — completes.
func (x *executor) worker(id int) {
	acc := &x.accs[id]
	st := &acc.rec
	var er *vsa.Record
	if x.rec != nil {
		er = &st.Eval
	}
	sess := x.multi.NewSession(er)
	defer sess.Close()
	for x.ctx.Err() == nil {
		c, ok := x.next()
		if !ok {
			return
		}
		var t0 time.Time
		if x.rec != nil {
			t0 = time.Now()
		}
		acc.dest = c.dest
		for _, seg := range c.segs {
			sess.EvalAppend(seg.Text, seg.Span, acc.rel, &acc.arena)
			st.EvalBytes += uint64(len(seg.Text))
		}
		st.Chunks++
		st.Segments += uint64(len(c.segs))
		if x.rec != nil {
			st.Busy += time.Since(t0)
		}
	}
}

// merge concatenates the per-worker accumulators by relation and
// canonicalizes each (offset sort + dedupe). Workers have all exited
// when merge runs, so no synchronization is needed.
func (x *executor) merge() []*span.Relation {
	out := make([]*span.Relation, x.ndest*x.multi.Len())
	for d := range out {
		total := 0
		for w := range x.accs {
			if r := x.accs[w].rels[d]; r != nil {
				total += len(r.Tuples)
			}
		}
		m := span.NewRelation(x.multi.Member(d % x.multi.Len()).Vars...)
		m.Tuples = make([]span.Tuple, 0, total)
		for w := range x.accs {
			if r := x.accs[w].rels[d]; r != nil {
				m.Tuples = append(m.Tuples, r.Tuples...)
			}
		}
		m.Dedupe()
		out[d] = m
	}
	return out
}

// chunked cuts segs into grain-sized chunks for dest. grain must be
// positive.
func chunked(dest int, segs []Segment, grain int, into []chunk) []chunk {
	for lo := 0; lo < len(segs); lo += grain {
		into = append(into, chunk{dest: dest, segs: segs[lo:min(lo+grain, len(segs))]})
	}
	return into
}
