package parallel

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/library"
	"repro/internal/span"
	"repro/internal/vsa"
)

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
// the workers that draw cheap chunks go on to take most of the rest.
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

// runOne is Run of p's Multi of one, returning its one relation.
func runOne(ctx context.Context, p *vsa.Automaton, src Source, opts Options) (*span.Relation, error) {
	rels, err := Run(ctx, vsa.NewMulti(p), src, opts)
	return rels[0], err
}

// pulledFrom is the pulled source of batches, in order.
func pulledFrom(batches ...[]Segment) Source {
	i := 0
	return Pulled(func() ([]Segment, bool) {
		if i == len(batches) {
			return nil, false
		}
		i++
		return batches[i-1], true
	})
}

// TestSplitEvalDeterminismUnderSkew is the determinism regression test:
// with adversarial segment sizes skewing which worker takes which chunk,
// the merged relation must be byte-identical — same tuples, same order —
// at every worker count and grain, including the one-worker schedule.
func TestSplitEvalDeterminismUnderSkew(t *testing.T) {
	p := library.NegativeSentiment()
	doc := adversarialDoc()
	segs := SegmentsOf(doc, library.FastSentenceSplit(doc))
	want := SplitEval(p, segs, 1)
	seq := p.Eval(doc)
	seq.Dedupe()
	relIdentical(t, "workers=1 vs sequential", want, seq)
	for _, opts := range []Options{
		{Workers: 2, Batch: 1},
		{Workers: 3},
		{Workers: 8, Batch: 2},
		{Workers: 16, Batch: 1000},
	} {
		got, err := runOne(context.Background(), p, Dealt(segs), opts)
		if err != nil {
			t.Fatalf("workers=%d batch=%d: %v", opts.Workers, opts.Batch, err)
		}
		relIdentical(t, "skewed schedule", got, want)
	}
}

// TestSplitEvalCtxCancellationMidRun cancels a large split evaluation
// while its workers are taking and executing chunks. The call must return
// promptly with context.Canceled and a well-formed (sorted, partial)
// relation — or, if the pool won the race, the complete result.
func TestSplitEvalCtxCancellationMidRun(t *testing.T) {
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
		rel, err = runOne(ctx, p, Dealt(segs), Options{Workers: 4, Batch: 1})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled Run did not return")
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

// TestSplitEvalBatchesOneLargeBatch gives a pulled run one
// batch of more segments than CollectionEvalSplit's grain; the worker
// that pulls it evaluates it as one chunk, and the result must match
// the dealt-slice path.
func TestSplitEvalBatchesOneLargeBatch(t *testing.T) {
	p := library.NegativeSentiment()
	doc := adversarialDoc()
	segs := SegmentsOf(doc, library.FastSentenceSplit(doc))
	if len(segs) <= streamGrain {
		t.Fatalf("need more than %d segments, have %d", streamGrain, len(segs))
	}
	want := SplitEval(p, segs, 1)
	got, err := runOne(context.Background(), p, pulledFrom(segs), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	relIdentical(t, "one large batch", got, want)
}

// TestCollectionEvalSplitSpreadsLongDocument puts one document with far
// more segments than the rest into a collection; the producer sends it
// as many chunks, which spread across the pool, with per-document
// results identical to per-document evaluation.
func TestCollectionEvalSplitSpreadsLongDocument(t *testing.T) {
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
		want := p.Eval(d)
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
	want := p.Eval("bad tea.")
	want.Dedupe()
	relIdentical(t, "more workers than chunks", got, want)
}

// spyCtx is a never-cancelled context that records which goroutines
// ask it for Err from a worker's loop — every started worker does, at
// the head of its loop — and whether each is the goroutine that called
// Run.
type spyCtx struct {
	context.Context
	mu       sync.Mutex
	onCaller map[string]bool // goroutine header → it is the caller
}

func (c *spyCtx) Err() error {
	// The caller's stack still has the test function on it; a spawned
	// worker's starts at the executor's go statement. Run's own look at
	// Err after the workers exit is not a worker's.
	stack := make([]byte, 4<<10)
	stack = stack[:runtime.Stack(stack, false)]
	if bytes.Contains(stack, []byte(".(*executor).worker(")) {
		id := string(stack[:bytes.IndexByte(stack, '[')]) // "goroutine N "
		c.mu.Lock()
		c.onCaller[id] = bytes.Contains(stack, []byte("TestExecutorWorkerCount"))
		c.mu.Unlock()
	}
	return c.Context.Err()
}

// TestPulledSourceOneAtATime pins Pulled's contract: the run calls the
// pull from one worker at a time and never again after its first false,
// at every worker count, and the result is the dealt run's. The pull
// yields the processor while it is in flight, so that a second worker
// let in would enter it then.
func TestPulledSourceOneAtATime(t *testing.T) {
	p := library.NegativeSentiment()
	doc := adversarialDoc()
	segs := SegmentsOf(doc, library.FastSentenceSplit(doc))
	want, err := runOne(context.Background(), p, Dealt(segs), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		var inFlight atomic.Int32
		var dry atomic.Bool
		lo := 0
		pull := func() ([]Segment, bool) {
			if inFlight.Add(1) != 1 {
				t.Errorf("workers=%d: pull entered while another was in flight", workers)
			}
			defer inFlight.Add(-1)
			if dry.Load() {
				t.Errorf("workers=%d: pull called after it returned false", workers)
			}
			runtime.Gosched()
			if lo == len(segs) {
				dry.Store(true)
				return nil, false
			}
			hi := min(lo+1+lo%3, len(segs))
			b := segs[lo:hi]
			lo = hi
			return b, true
		}
		got, err := runOne(context.Background(), p, Pulled(pull), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		relIdentical(t, fmt.Sprintf("pulled, workers=%d", workers), got, want)
	}
}

// TestExecutorWorkerCount pins how many workers Run starts and where:
// over a dealt source never more than it has chunks (none for none),
// over a pulled source its full budget, and in both the calling goroutine
// is one of them. Every chunk is evaluated exactly once: the merge's
// dedupe would hide a chunk evaluated twice, the executor's chunk and
// segment counts do not.
func TestExecutorWorkerCount(t *testing.T) {
	p := library.NegativeSentiment()
	doc := "bad tea. bad mood. fine day. bad luck."
	segs := SegmentsOf(doc, library.FastSentenceSplit(doc))
	if len(segs) < 3 {
		t.Fatalf("%d segments, want at least 3", len(segs))
	}
	want := p.Eval(doc)
	want.Dedupe()
	for _, tc := range []struct {
		name    string
		segs    []Segment // nil: pull segs as one batch instead
		batch   int
		workers int
		chunks  int
		started int
	}{
		{"no chunks", []Segment{}, 0, 4, 0, 0},
		{"one chunk", segs, len(segs), 4, 1, 1},
		{"two chunks", segs, (len(segs) + 1) / 2, 4, 2, 2},
		{"more chunks than workers", segs, 1, 2, len(segs), 2},
		{"pulled", nil, 0, 3, 1, 3},
	} {
		ctx := &spyCtx{Context: context.Background(), onCaller: map[string]bool{}}
		m := &Record{}
		src, nsegs := Dealt(tc.segs), len(tc.segs)
		if tc.segs == nil {
			src, nsegs = pulledFrom(segs), len(segs)
		}
		rels, err := Run(ctx, vsa.NewMulti(p), src, Options{Workers: tc.workers, Batch: tc.batch, Record: m})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
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
		if m.Runs != 1 || m.Workers != tc.started {
			t.Errorf("%s: %d runs of %d workers recorded, want 1 of %d", tc.name, m.Runs, m.Workers, tc.started)
		}
		if m.Chunks != uint64(tc.chunks) || m.Segments != uint64(nsegs) {
			t.Errorf("%s: %d chunks and %d segments evaluated, want %d and %d",
				tc.name, m.Chunks, m.Segments, tc.chunks, nsegs)
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
		rel, _ := runOne(context.Background(), p, Dealt(segs), opts)
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
