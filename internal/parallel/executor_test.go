package parallel

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/library"
	"repro/internal/span"
	"repro/internal/vsa"
)

func TestDequeOwnerAndThiefEnds(t *testing.T) {
	var d deque
	mk := func(n int) chunk { return chunk{dest: n} }
	if _, ok := d.pop(); ok {
		t.Fatal("pop on empty deque must fail")
	}
	if _, ok := d.steal(); ok {
		t.Fatal("steal on empty deque must fail")
	}
	for i := 0; i < 4; i++ {
		d.push(mk(i))
	}
	if got := d.size(); got != 4 {
		t.Fatalf("size = %d, want 4", got)
	}
	// Thieves take the oldest chunk, the owner the newest.
	if c, ok := d.steal(); !ok || c.dest != 0 {
		t.Fatalf("steal = %v, %v; want chunk 0", c, ok)
	}
	if c, ok := d.pop(); !ok || c.dest != 3 {
		t.Fatalf("pop = %v, %v; want chunk 3", c, ok)
	}
	if c, ok := d.steal(); !ok || c.dest != 1 {
		t.Fatalf("steal = %v, %v; want chunk 1", c, ok)
	}
	if c, ok := d.pop(); !ok || c.dest != 2 {
		t.Fatalf("pop = %v, %v; want chunk 2", c, ok)
	}
	if _, ok := d.pop(); ok {
		t.Fatal("deque must be empty")
	}
	// Draining resets the buffer so a long-lived worker does not leak
	// consumed slots.
	if len(d.buf) != 0 || d.head != 0 {
		t.Fatalf("drained deque not reset: len=%d head=%d", len(d.buf), d.head)
	}
}

func TestChunkedCoversAllSegments(t *testing.T) {
	segs := make([]Segment, 10)
	for grain := 1; grain <= 11; grain++ {
		total := 0
		for _, c := range chunked(7, segs, grain, nil) {
			if c.dest != 7 {
				t.Fatalf("grain=%d: dest = %d, want 7", grain, c.dest)
			}
			if len(c.segs) == 0 || len(c.segs) > grain {
				t.Fatalf("grain=%d: chunk of %d segments", grain, len(c.segs))
			}
			total += len(c.segs)
		}
		if total != len(segs) {
			t.Fatalf("grain=%d: chunks cover %d of %d segments", grain, total, len(segs))
		}
	}
}

// relIdentical asserts two already-canonical relations are byte-identical
// — same variables, same tuples in the same order — without the
// re-sorting Relation.Equal performs.
func relIdentical(t *testing.T, name string, got, want *span.Relation) {
	t.Helper()
	if len(got.Vars) != len(want.Vars) {
		t.Fatalf("%s: vars %v vs %v", name, got.Vars, want.Vars)
	}
	for i := range got.Vars {
		if got.Vars[i] != want.Vars[i] {
			t.Fatalf("%s: vars %v vs %v", name, got.Vars, want.Vars)
		}
	}
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s: %d tuples vs %d", name, len(got.Tuples), len(want.Tuples))
	}
	for i := range got.Tuples {
		if !got.Tuples[i].Equal(want.Tuples[i]) {
			t.Fatalf("%s: tuple %d: %v vs %v", name, i, got.Tuples[i], want.Tuples[i])
		}
	}
}

// adversarialDoc builds a document whose sentence segments alternate
// between tiny and very large, so chunks carry wildly unequal work and
// the fast workers must steal from the slow ones to finish.
func adversarialDoc() string {
	var b strings.Builder
	long := strings.Repeat("bad coffee and bad service from a bad place ", 2000)
	for i := 0; i < 40; i++ {
		switch i % 4 {
		case 0:
			b.WriteString("x. ")
		case 1:
			b.WriteString(long)
			b.WriteString(". ")
		case 2:
			b.WriteString("bad tea. ")
		default:
			b.WriteString(corpus.Reviews(uint64(i), 30)[0])
			b.WriteString(". ")
		}
	}
	return b.String()
}

// TestSplitEvalDeterminismUnderSteal is the determinism-under-steal
// regression test: with adversarial segment sizes forcing steals, the
// merged relation must be byte-identical — same tuples, same order — at
// every worker count and grain, including the no-steal workers=1
// schedule.
func TestSplitEvalDeterminismUnderSteal(t *testing.T) {
	p := library.NegativeSentiment()
	doc := adversarialDoc()
	segs := SegmentsOf(doc, library.FastSentenceSplit(doc))
	want := SplitEval(p, segs, 1)
	seq := Sequential(p, doc)
	seq.Dedupe()
	relIdentical(t, "workers=1 vs sequential", want, seq)
	for _, opts := range []Options{
		{Workers: 2, Batch: 1},
		{Workers: 3},
		{Workers: 8, Batch: 2},
		{Workers: 16, Batch: 1000},
	} {
		got, err := SplitEvalCtx(context.Background(), p, segs, opts)
		if err != nil {
			t.Fatalf("workers=%d batch=%d: %v", opts.Workers, opts.Batch, err)
		}
		relIdentical(t, "stolen schedule", got, want)
	}
}

// TestSplitEvalCtxCancellationMidSteal cancels a large split evaluation
// while its chunks are being executed and stolen. The call must return
// promptly with context.Canceled and a well-formed (sorted, partial)
// relation — or, if the pool won the race, the complete result.
func TestSplitEvalCtxCancellationMidSteal(t *testing.T) {
	p := library.NegativeSentiment()
	doc := strings.Join(corpus.Reviews(9, 4000), "\n")
	segs := SegmentsOf(doc, library.FastSentenceSplit(doc))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var rel *span.Relation
	var err error
	go func() {
		defer close(done)
		rel, err = SplitEvalCtx(ctx, p, segs, Options{Workers: 4, Batch: 1})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled SplitEvalCtx did not return")
	}
	if rel == nil {
		t.Fatal("expected a (partial) relation even on cancellation")
	}
	full := SplitEval(p, segs, 1)
	if err == nil {
		// The evaluation finished before the cancel landed.
		relIdentical(t, "uncancelled run", rel, full)
		return
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rel.Len() > full.Len() {
		t.Fatalf("partial result has %d tuples, full only %d", rel.Len(), full.Len())
	}
	// Partial results are still canonical and a subset of the full result.
	for _, tu := range rel.Tuples {
		if !full.Has(tu) {
			t.Fatalf("partial tuple %v not in full result", tu)
		}
	}
}

// TestSplitEvalBatchesOversizedBatchIsSplit feeds the streaming
// evaluator one batch far larger than the stealing grain; the receiving
// worker must halve it onto its deque (where the other workers steal)
// and the result must match the dealt-slice path.
func TestSplitEvalBatchesOversizedBatchIsSplit(t *testing.T) {
	p := library.NegativeSentiment()
	doc := adversarialDoc()
	segs := SegmentsOf(doc, library.FastSentenceSplit(doc))
	if len(segs) <= streamGrain {
		t.Fatalf("need more than %d segments, have %d", streamGrain, len(segs))
	}
	want := SplitEval(p, segs, 1)
	batches := make(chan []Segment, 1)
	go func() {
		defer close(batches)
		batches <- segs
	}()
	got, err := SplitEvalBatches(context.Background(), p, batches, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	relIdentical(t, "oversized batch", got, want)
}

// TestCollectionEvalSplitStealsLongDocument puts one document with far
// more segments than the rest into a collection; its chunk arrives
// whole from the producer and must spread across the pool by stealing,
// with per-document results identical to per-document evaluation.
func TestCollectionEvalSplitStealsLongDocument(t *testing.T) {
	p := library.NegativeSentiment()
	docs := []string{
		"bad tea. nice place.",
		adversarialDoc(),
		"",
		"very bad coffee!",
	}
	split := CollectionEvalSplit(p, docs, library.FastSentenceSplit, 4)
	if len(split) != len(docs) {
		t.Fatalf("%d relations for %d documents", len(split), len(docs))
	}
	for i, d := range docs {
		want := Sequential(p, d)
		want.Dedupe()
		aligned, err := split[i].Project(want.Vars)
		if err != nil {
			t.Fatal(err)
		}
		if !aligned.Equal(want) {
			t.Fatalf("document %d differs: %v vs %v", i, aligned, want)
		}
	}
}

// TestSplitEvalEmptySegments pins the zero-work edge cases: no segments
// at all, and more workers than chunks.
func TestSplitEvalEmptySegments(t *testing.T) {
	p := library.NegativeSentiment()
	rel := SplitEval(p, nil, 8)
	if rel.Len() != 0 {
		t.Fatalf("no segments must yield an empty relation, got %v", rel)
	}
	one := SegmentsOf("bad tea.", library.FastSentenceSplit("bad tea."))
	got := SplitEval(p, one, 8)
	want := Sequential(p, "bad tea.")
	want.Dedupe()
	relIdentical(t, "more workers than chunks", got, want)
}

// spyCtx is a never-cancelled context that records which goroutines
// ask it for Err — every started worker does, at the head of its loop,
// and nothing else in a run does — and whether each is the goroutine
// that called run.
type spyCtx struct {
	context.Context
	mu       sync.Mutex
	onCaller map[string]bool // goroutine header → it is the caller
}

func (c *spyCtx) Err() error {
	// The caller's stack still has the test function on it; a spawned
	// worker's starts at the executor's go statement.
	stack := make([]byte, 4<<10)
	stack = stack[:runtime.Stack(stack, false)]
	id := string(stack[:bytes.IndexByte(stack, '[')]) // "goroutine N "
	c.mu.Lock()
	c.onCaller[id] = bytes.Contains(stack, []byte("TestExecutorWorkerCount"))
	c.mu.Unlock()
	return c.Context.Err()
}

// TestExecutorWorkerCount pins how many workers a run starts and where:
// slice mode never more than it has chunks (none for none), channel mode
// its full budget, and in both the calling goroutine is one of them.
func TestExecutorWorkerCount(t *testing.T) {
	p := library.NegativeSentiment()
	doc := "bad tea. bad mood. fine day. bad luck."
	segs := SegmentsOf(doc, library.FastSentenceSplit(doc))
	want := Sequential(p, doc)
	want.Dedupe()
	for _, tc := range []struct {
		name    string
		chunks  [][]Segment // nil: feed segs through a channel instead
		workers int
		started int
	}{
		{"no chunks", [][]Segment{}, 4, 0},
		{"one chunk", [][]Segment{segs}, 4, 1},
		{"two chunks", [][]Segment{segs[:2], segs[2:]}, 4, 2},
		{"more chunks than workers", [][]Segment{segs[:1], segs[1:2], segs[2:]}, 2, 2},
		{"channel", nil, 3, 3},
	} {
		ctx := &spyCtx{Context: context.Background(), onCaller: map[string]bool{}}
		m := &ExecMetrics{}
		var rels []*span.Relation
		if tc.chunks != nil {
			var chunks []chunk
			for _, s := range tc.chunks {
				chunks = append(chunks, chunk{segs: s})
			}
			rels = runChunks(ctx, vsa.NewMulti(p), tc.workers, 1, 0, chunks, m)
		} else {
			feed := make(chan []Segment, 1)
			feed <- segs
			close(feed)
			recv := func(context.Context) (chunk, bool) {
				s, ok := <-feed
				return chunk{segs: s}, ok
			}
			rels = newExecutor(ctx, vsa.NewMulti(p), tc.workers, 1, streamGrain, recv, m).run()
		}
		expect := want
		if tc.started == 0 {
			expect = span.NewRelation(p.Vars...)
		}
		relIdentical(t, tc.name, rels[0], expect)
		onCaller := 0
		for _, c := range ctx.onCaller {
			if c {
				onCaller++
			}
		}
		if len(ctx.onCaller) != tc.started || onCaller != min(tc.started, 1) {
			t.Errorf("%s: %d workers started, %d of them on the caller; want %d and %d",
				tc.name, len(ctx.onCaller), onCaller, tc.started, min(tc.started, 1))
		}
		if m.Runs.Load() != 1 {
			t.Errorf("%s: %d runs recorded, want 1", tc.name, m.Runs.Load())
		}
	}
}

// TestSplitEvalSmallRunAllocatesSmallArena pins the arena's geometric
// growth where it matters: a run whose workers see a handful of tuples
// must not allocate a steady-state slab (64 KiB) for each of them.
func TestSplitEvalSmallRunAllocatesSmallArena(t *testing.T) {
	p := library.NegativeSentiment()
	doc := strings.Repeat("bad tea. bad mood. fine day. bad luck. ", 5)
	segs := SegmentsOf(doc, library.FastSentenceSplit(doc))
	opts := Options{Workers: 2, Batch: 4}
	run := func() int {
		rel, _ := SplitEvalCtx(context.Background(), p, segs, opts)
		return rel.Len()
	}
	if n := run(); n == 0 || n > 16 {
		t.Fatalf("%d tuples, want 1..16", n)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun >= 8<<10 {
		t.Fatalf("a %d-segment, ≤16-tuple run allocated %d bytes, want < 8 KiB", len(segs), perRun)
	}
}
