package engine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/library"
)

// reviewPlan is the dense split workload's plan, hand-built: negative
// sentiment per sentence. The Local verdict is honest (the sentence
// splitter is proven local in TestPlanSelectsSplitStrategy and in core).
func reviewPlan() *Plan {
	neg := library.NegativeSentiment()
	return &Plan{
		p:        neg,
		ps:       neg,
		s:        library.Sentences(),
		Strategy: StrategySplit,
		Verdicts: core.PlanVerdicts{Disjoint: core.VerdictYes, SelfSplittable: core.VerdictYes, Local: core.VerdictYes},
	}
}

// reviewDoc returns a review corpus cut to exactly n bytes.
func reviewDoc(seed uint64, n int) string {
	for count := n / 256; ; count *= 2 {
		if doc := strings.Join(corpus.Reviews(seed, count), "\n"); len(doc) >= n {
			return doc[:n]
		}
	}
}

// TestSplitPathAllocationsPerSegment is the deterministic guard on the
// split path's fixed costs: a sentence-split document has some 25 000
// segments per megabyte, so anything allocated once per segment is the
// request's dominant garbage. Text is one string per feed, dispatch one
// slice per feed, evaluator set-up once per worker; what remains scales
// with feeds and result tuples, not with segments.
func TestSplitPathAllocationsPerSegment(t *testing.T) {
	doc := reviewDoc(1, 256<<10)
	e := New(Config{Workers: 2})
	plan := reviewPlan()
	ctx := context.Background()
	nseg := float64(len(plan.s.Split(doc)))
	if nseg < 5000 {
		t.Fatalf("only %v segments: the corpus lost its sentence density", nseg)
	}
	streamed := testing.AllocsPerRun(5, func() {
		if _, err := e.ExtractReader(ctx, plan, strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	})
	inline := testing.AllocsPerRun(5, func() {
		if _, err := e.Extract(ctx, plan, doc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v segments: %.3f allocations per segment streamed, %.3f inline", nseg, streamed/nseg, inline/nseg)
	const limit = 0.5
	if streamed/nseg > limit {
		t.Errorf("ExtractReader: %.2f allocations per segment, want ≤ %v", streamed/nseg, limit)
	}
	if inline/nseg > limit {
		t.Errorf("Extract: %.2f allocations per segment, want ≤ %v", inline/nseg, limit)
	}
}
