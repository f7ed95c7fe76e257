package engine

import (
	"context"
	"io"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

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

// bytesPerRun is the mean growth of runtime.MemStats.TotalAlloc over runs
// calls of f: every heap byte allocated, collected since or not. The
// collector is off meanwhile: a cycle empties the evaluators' sync.Pools,
// and refilling them would be counted as f's.
func bytesPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f() // pools, lazy tables and the plan's caches fill outside the count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// withDeadlines gives a reader that never stalls a SetReadDeadline that
// does nothing, as a request body has, so the stall guard wraps it; a
// *strings.Reader's Len stays visible, its WriteTo does not.
type withDeadlines struct{ io.Reader }

func (r withDeadlines) Len() int {
	if l, ok := r.Reader.(interface{ Len() int }); ok {
		return l.Len()
	}
	return 0
}

func (withDeadlines) SetReadDeadline(time.Time) error { return nil }

// TestBufferedIngestBytesPerDocument is the deterministic twin of the
// large-sparse-seq benchmark claim: a buffered 2 MiB document behind the
// stall guard is allocated once when its stream declares a length, and at
// most twice over (the doubling ladder's 64 KiB … 2 MiB sum) when it does
// not. Growing a slice by append and copying it into a string, as
// readAllBounded did, allocated six times the document. The document has
// no '@', so the e-mail spanner's evaluation is one prefilter miss and
// what is counted is ingest (the evaluators' pooled scratch comes and
// goes with the collector and, under -race, at random).
func TestBufferedIngestBytesPerDocument(t *testing.T) {
	doc := sparseDoc(2 << 20)
	e := New(Config{Workers: 2, ReadTimeout: time.Minute})
	plan := mustPlan(t, e, Request{Spanner: emailFormula}) // sequential: buffers
	ctx := context.Background()
	for _, c := range []struct {
		name  string
		open  func() io.Reader
		limit float64
	}{
		{"declared", func() io.Reader { return withDeadlines{strings.NewReader(doc)} }, 1.25},
		{"undeclared", func() io.Reader { return withDeadlines{unsized{strings.NewReader(doc)}} }, 3},
	} {
		per := bytesPerRun(5, func() {
			if _, err := e.ExtractReader(ctx, plan, c.open()); err != nil {
				t.Fatal(err)
			}
		}) / float64(len(doc))
		t.Logf("%s length: %.2f bytes allocated per document byte", c.name, per)
		if per > c.limit {
			t.Errorf("%s length: %.2f bytes allocated per document byte, want ≤ %v", c.name, per, c.limit)
		}
	}
}

// TestSmallStreamAllocatesSmall: a 2 KiB stream that says so does not pay
// for the buffers of a large one — it used to cost a 64 KiB read chunk and
// two 64 KiB pump buffers — on the buffered route or through a split
// plan's look-ahead, behind the stall guard.
func TestSmallStreamAllocatesSmall(t *testing.T) {
	doc := reviewDoc(1, 2<<10)
	e := New(Config{Workers: 2, ReadTimeout: time.Minute})
	ctx := context.Background()
	for name, plan := range map[string]*Plan{"sequential": sequentialPlan(), "split": reviewPlan()} {
		per := bytesPerRun(100, func() {
			if _, err := e.ExtractReader(ctx, plan, withDeadlines{strings.NewReader(doc)}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s plan: %.0f bytes allocated per 2 KiB document", name, per)
		if per > 16<<10 {
			t.Errorf("%s plan: %.0f bytes allocated per 2 KiB document, want ≤ 16 KiB", name, per)
		}
	}
}

// TestColdPlanAllocs pins the allocations of one cold plan on the
// plan-churn shape, root BenchmarkEnginePlanCache/Churn's iteration: a
// long-lived engine is asked for a never-seen spanner (a fresh capture
// name) over a splitter it already holds, so the plan compiles P,
// decides SplitCorrect(P, P, S) — Compose, the symbol table, the word
// NFAs, both containment directions — and prepares P, and takes S from
// its plan-cache entry. Before the builders moved to flat tables the same
// plan made 1 268 allocations (1 269 per benchmark iteration), and 600
// before automata.SetTable dropped its string keys; the bound is the 506
// it makes since, plus 10 %.
func TestColdPlanAllocs(t *testing.T) {
	e := New(Config{})
	ctx := context.Background()
	n := 0
	plan := func() {
		n++
		req := Request{Spanner: strings.Replace(sentimentFormula, "y{", "c"+strconv.Itoa(n)+"{", 1), Splitter: sentenceFormula}
		if _, hit, err := e.Plan(ctx, req); err != nil || hit {
			t.Fatalf("plan %d: hit=%v err=%v, want a cold plan", n, hit, err)
		}
	}
	plan() // builds the splitter artifact the measured plans share
	const parent, bound = 600, 557
	got := testing.AllocsPerRun(20, plan)
	t.Logf("cold plan (sentiment × sentences, warm splitter): %.0f allocs (parent %d)", got, parent)
	if got > bound {
		t.Fatalf("a cold plan allocates %.0f times, want ≤ %d", got, bound)
	}
}
