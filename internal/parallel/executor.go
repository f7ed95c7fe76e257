package parallel

import (
	"context"
	"sync"
	"time"

	"repro/internal/span"
	"repro/internal/vsa"
)

// This file implements the work-stealing split-evaluation executor that
// backs SplitEval, SplitEvalCtx, SplitEvalBatches, CollectionEval,
// CollectionEvalSplit and MultiEval. The shape follows Blumofe &
// Leiserson ("Scheduling Multithreaded Computations by Work Stealing"):
// each worker owns a chunked deque; work is dealt (or arrives) in chunks
// of several segments; a worker that runs dry steals the oldest chunk
// from a random victim. Results never cross a channel: each worker
// appends shifted tuples into its own arena-backed relation accumulator
// (through its vsa.MultiSession), and the per-worker accumulators are
// concatenated and offset-sorted once at the end — the merged relation
// is therefore byte-identical no matter how chunks were dealt, stolen or
// interleaved.
//
// What the workers evaluate is always a vsa.Multi: a single spanner is
// the Multi of one. A chunk's destination (a document of a collection,
// or 0) and a member query together index the relation a tuple lands
// in: destination × members + member.

// executor is one split-evaluation run: a set of workers, their deques
// and accumulators, and (in streaming mode) the feed they block on when
// idle.
type executor struct {
	multi *vsa.Multi
	ctx   context.Context
	grain int // split chunks larger than this; 0 disables splitting
	ndest int

	// recv, when non-nil, blocks for the next chunk from the external
	// feed (the engine's segmenter, a collection's splitter producer).
	// It returns ok=false when the feed is exhausted — closed, or the
	// context fired; the worker loop re-checks ctx to distinguish.
	recv func(context.Context) (chunk, bool)

	// m, when non-nil, receives this run's scheduling statistics.
	// Workers tally privately and flush at exit (see ExecMetrics), so a
	// nil m costs nothing and a live one costs two clock reads per chunk.
	m *ExecMetrics

	deques []deque
	accs   []accumulator
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
// ndest destinations. multi is prepared so the workers share warm
// evaluation caches instead of racing to build them.
func newExecutor(ctx context.Context, multi *vsa.Multi, nw, ndest, grain int, recv func(context.Context) (chunk, bool), m *ExecMetrics) *executor {
	multi.Prepare()
	x := &executor{
		multi:  multi,
		ctx:    ctx,
		grain:  grain,
		ndest:  ndest,
		recv:   recv,
		m:      m,
		deques: make([]deque, nw),
		accs:   make([]accumulator, nw),
	}
	for i := range x.accs {
		x.accs[i] = accumulator{multi: multi, rels: make([]*span.Relation, ndest*multi.Len())}
	}
	return x
}

// runChunks is slice mode: the chunks are dealt round-robin across the
// deques of min(workers, len(chunks)) workers — a worker beyond the chunk
// count could only come up empty and exit — and the run is driven to its
// merge. Round-robin, not blocks: neighboring chunks cover neighboring
// document regions with similar match density, so interleaving them
// balances the expected load per worker before any steal is needed.
func runChunks(ctx context.Context, multi *vsa.Multi, workers, ndest, grain int, chunks []chunk, m *ExecMetrics) []*span.Relation {
	x := newExecutor(ctx, multi, min(workers, len(chunks)), ndest, grain, nil, m)
	for i, c := range chunks {
		x.deques[i%len(x.deques)].push(c)
	}
	return x.run()
}

// run drives the workers to completion and merges. The calling goroutine
// is worker 0 and only the others are spawned, so a run with one worker —
// one dealt chunk, a one-worker budget — starts no goroutine at all, and
// a run with none (slice mode, nothing dealt) goes straight to the merge.
// The merged relations are deduplicated and offset-sorted, one per
// destination and member — deterministic regardless of the steal
// schedule. On cancellation the workers stop between chunks and whatever
// they had accumulated is merged and returned (the partial-result
// contract of SplitEvalCtx).
func (x *executor) run() []*span.Relation {
	var t0 time.Time
	if x.m != nil {
		t0 = time.Now()
	}
	var wg sync.WaitGroup
	for id := 1; id < len(x.deques); id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x.worker(id)
		}()
	}
	if len(x.deques) > 0 {
		x.worker(0)
	}
	wg.Wait()
	if x.m == nil {
		return x.merge()
	}
	x.m.Runs.Inc()
	x.m.RunNS.AddDuration(time.Since(t0))
	tm := time.Now()
	rels := x.merge()
	x.m.MergeNS.RecordDuration(time.Since(tm))
	return rels
}

// worker is one scheduling loop: drain the own deque, then steal, then
// (streaming mode) block on the feed; exit when all three are dry. A
// worker always drains its own deque before exiting, so chunks it split
// off are never orphaned — at worst a late-splitting worker finishes
// them itself instead of having them stolen. The loop head is the one
// place a worker looks at the context between chunks.
func (x *executor) worker(id int) {
	self, acc := &x.deques[id], &x.accs[id]
	sess := x.multi.NewSession()
	defer sess.Close()
	var st workerStats
	if x.m != nil {
		st.dequeMax = self.size() // the dealt backlog, before any pop
		defer x.m.flush(&st)
	}
	rng := uint32(id)*2654435761 + 1 // per-worker victim sequence, any nonzero seed
	for {
		if x.ctx.Err() != nil {
			return
		}
		c, ok := self.pop()
		if !ok {
			if c, ok = x.trySteal(id, &rng); ok {
				st.steals++
			}
		}
		if !ok && x.recv != nil {
			if c, ok = x.recv(x.ctx); !ok {
				// Feed exhausted. One more sweep: a peer may have split a
				// late chunk after our first sweep came up empty.
				if c, ok = x.trySteal(id, &rng); ok {
					st.steals++
				}
			}
		}
		if !ok {
			return
		}
		x.exec(c, self, acc, &sess, &st)
	}
}

// trySteal sweeps every other worker's deque once, starting from a
// random victim so idle workers do not convoy on the same one. The
// sweep re-checks cancellation per victim: on a cancelled run a worker
// must not pick up yet another chunk of a huge document's backlog —
// without the check, a request whose deadline fired could keep every
// worker busy for a full extra sweep of stolen work.
func (x *executor) trySteal(id int, rng *uint32) (chunk, bool) {
	n := len(x.deques)
	*rng ^= *rng << 13
	*rng ^= *rng >> 17
	*rng ^= *rng << 5
	start := int(*rng % uint32(n))
	for k := 0; k < n; k++ {
		if x.ctx.Err() != nil {
			return chunk{}, false
		}
		v := start + k
		if v >= n {
			v -= n
		}
		if v == id {
			continue
		}
		if c, ok := x.deques[v].steal(); ok {
			return c, true
		}
	}
	return chunk{}, false
}

// exec evaluates one chunk on the worker's session into its
// accumulator. A chunk larger than the grain is halved first, with the
// far half pushed onto the own deque where idle workers can steal it —
// this is how a single oversized arrival (a whole feed's segments from
// the streaming segmenter, a whole document's from a collection
// producer) spreads across the pool.
// Cancellation is honored between chunks (the worker loop's check); the
// chunk in flight — at most the grain's worth of segments — completes.
func (x *executor) exec(c chunk, self *deque, acc *accumulator, sess *vsa.MultiSession, st *workerStats) {
	for x.grain > 0 && len(c.segs) > x.grain {
		half := (len(c.segs) + 1) / 2
		self.push(chunk{dest: c.dest, segs: c.segs[half:]})
		c.segs = c.segs[:half]
		if x.m != nil {
			if n := self.size(); n > st.dequeMax {
				st.dequeMax = n
			}
		}
	}
	var t0 time.Time
	if x.m != nil {
		t0 = time.Now()
	}
	acc.dest = c.dest
	for _, seg := range c.segs {
		sess.EvalAppend(seg.Text, seg.Span, acc.rel, &acc.arena)
		st.bytes += uint64(len(seg.Text))
	}
	st.chunks++
	st.segments += uint64(len(c.segs))
	if x.m != nil {
		st.busy += time.Since(t0)
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
		hi := lo + grain
		if hi > len(segs) {
			hi = len(segs)
		}
		into = append(into, chunk{dest: dest, segs: segs[lo:hi]})
	}
	return into
}
