package parallel

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/library"
)

func TestSplitEvalEqualsSequential(t *testing.T) {
	// The negative-sentiment extractor is self-splittable by sentences
	// (proved in the library tests); split evaluation must therefore agree
	// with direct evaluation.
	p := library.NegativeSentiment()
	doc := corpus.Reviews(21, 40)[0] + corpus.Reviews(22, 40)[1]
	segs := SegmentsOf(doc, library.FastSentenceSplit(doc))
	for _, workers := range []int{1, 2, 5} {
		par := SplitEval(p, segs, workers)
		seq := p.Eval(doc)
		seq.Dedupe()
		if !par.Equal(seq) {
			t.Fatalf("workers=%d: split evaluation differs", workers)
		}
	}
}

func TestCollectionEval(t *testing.T) {
	p := library.FinanceEvents()
	docsIn := corpus.Reuters(31, 25)
	direct := CollectionEval(p, docsIn, 3)
	split := CollectionEvalSplit(p, docsIn, library.FastSentenceSplit, 3)
	if len(direct) != len(split) {
		t.Fatal("result count mismatch")
	}
	total := 0
	for i := range direct {
		direct[i].Dedupe()
		aligned, err := split[i].Project(direct[i].Vars)
		if err != nil {
			t.Fatal(err)
		}
		if !aligned.Equal(direct[i]) {
			t.Fatalf("document %d differs: %v vs %v", i, aligned, direct[i])
		}
		total += direct[i].Len()
	}
	if total == 0 {
		t.Fatal("expected some finance events in the corpus")
	}
}

func TestSplitEvalCtxBatchingEqualsUnbatched(t *testing.T) {
	p := library.NegativeSentiment()
	doc := corpus.Reviews(23, 40)[0] + ". " + corpus.Reviews(24, 40)[1]
	segs := SegmentsOf(doc, library.FastSentenceSplit(doc))
	want := SplitEval(p, segs, 3)
	for _, batch := range []int{1, 2, 7, 1000} {
		got, err := runOne(context.Background(), p, Dealt(segs), Options{Workers: 3, Batch: batch})
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if !got.Equal(want) {
			t.Fatalf("batch=%d: batched evaluation differs", batch)
		}
	}
}

func TestSplitEvalCtxCancellation(t *testing.T) {
	p := library.NegativeSentiment()
	doc := corpus.Reviews(25, 40)[0]
	segs := SegmentsOf(doc, library.FastSentenceSplit(doc))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: nothing should be dispatched
	rel, err := runOne(ctx, p, Dealt(segs), Options{Workers: 2})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rel == nil {
		t.Fatal("expected a (partial) relation even on cancellation")
	}
}

func TestSplitEvalBatchesStreaming(t *testing.T) {
	// Pull batches while evaluation is running — the engine's streaming
	// path — and check the merged result.
	p := library.NegativeSentiment()
	doc := corpus.Reviews(26, 40)[0] + ". " + corpus.Reviews(27, 40)[2]
	segs := SegmentsOf(doc, library.FastSentenceSplit(doc))
	want := SplitEval(p, segs, 3)
	batches := make([][]Segment, len(segs))
	for i := range segs {
		batches[i] = segs[i : i+1]
	}
	got, err := runOne(context.Background(), p, pulledFrom(batches...), Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("streamed batch evaluation differs from slice evaluation")
	}
}
