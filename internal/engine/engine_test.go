package engine

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/library"
	"repro/internal/parallel"
)

// Formula counterparts of the library definitions, exercised through the
// engine's string-keyed plan cache.
const (
	emailFormula    = `(.*[^a-z0-9])?(y{[a-z0-9]+@[a-z0-9]+})([^a-z0-9].*)?`
	sentenceFormula = "(x{[^.!?\\n]*})([.!?\\n][^.!?\\n]*)*|" +
		"[^.!?\\n]*([.!?\\n][^.!?\\n]*)*[.!?\\n](x{[^.!?\\n]*})([.!?\\n][^.!?\\n]*)*"
)

const emailDoc = "write to ann@example or bob@corp. then ping eve@host! done."

func newTestEngine() *Engine {
	// The library splitters used by these tests are proven local by the
	// plan's verdict, so the streaming paths the tests exercise are the
	// ones real deployments get.
	return New(Config{Workers: 4, Batch: 2, ChunkSize: 7, PlanCache: 8})
}

func mustPlan(t *testing.T, e *Engine, req Request) *Plan {
	t.Helper()
	plan, _, err := e.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// splitOnly returns the plan without its split-correctness verdict: the
// engine then has no licence to evaluate a document whole, so documents
// of any size take the split route. The tests below use it to keep
// pinning the segmenter, the pull and the executor on documents of a
// few dozen bytes, where every chunk boundary can be enumerated.
func splitOnly(plan *Plan) *Plan {
	forced := *plan
	forced.Verdicts.SelfSplittable, forced.Verdicts.SplitCorrect = core.VerdictUnknown, core.VerdictUnknown
	return &forced
}

func TestPlanSelectsSplitStrategy(t *testing.T) {
	e := newTestEngine()
	plan := mustPlan(t, e, Request{Spanner: emailFormula, Splitter: sentenceFormula})
	if plan.Strategy != StrategySplit {
		t.Fatalf("strategy = %v, want split-parallel (verdicts %+v)", plan.Strategy, plan.Verdicts)
	}
	if plan.Verdicts.SelfSplittable != core.VerdictYes || plan.Verdicts.Disjoint != core.VerdictYes {
		t.Fatalf("verdicts = %+v, want self-splittable and disjoint", plan.Verdicts)
	}
	if plan.Verdicts.Local != core.VerdictYes {
		t.Fatalf("verdicts = %+v, want a locality proof for the sentence splitter", plan.Verdicts)
	}
}

func TestExtractMatchesDirectEval(t *testing.T) {
	e := newTestEngine()
	plan := splitOnly(mustPlan(t, e, Request{Spanner: emailFormula, Splitter: sentenceFormula}))
	got, err := e.Extract(context.Background(), plan, emailDoc)
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Spanner().Eval(emailDoc)
	if !got.Equal(want) {
		t.Fatalf("split extract %v != direct eval %v", got, want)
	}
	if got.Len() != 3 {
		t.Fatalf("expected 3 emails, got %v", got)
	}
}

func TestExtractEmptyDocument(t *testing.T) {
	e := newTestEngine()
	whole := mustPlan(t, e, Request{Spanner: emailFormula, Splitter: sentenceFormula})
	// On both routes: evaluated whole, and split into S("").
	for _, plan := range []*Plan{whole, splitOnly(whole)} {
		got, err := e.Extract(context.Background(), plan, "")
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 0 {
			t.Fatalf("empty document yielded %v", got)
		}
		// Streaming an empty reader must agree.
		streamed, err := e.ExtractReader(context.Background(), plan, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		if !streamed.Equal(got) {
			t.Fatalf("streamed empty doc %v != one-shot %v", streamed, got)
		}
	}
}

func TestExtractZeroSegments(t *testing.T) {
	// A splitter that selects nothing on this document: S(d) = ∅, so
	// split evaluation must produce the empty relation without touching
	// a worker.
	e := newTestEngine()
	plan := mustPlan(t, e, Request{Spanner: `y{b+}`, Splitter: `x{a+}`, SplitSpanner: `y{b+}`})
	// (y{b+}, x{a+}) is vacuously split-correct on no document... the
	// verdict machinery may disagree; force the split strategy to pin
	// down the zero-segment path regardless.
	plan = &Plan{
		Req:      plan.Req,
		p:        plan.p,
		ps:       plan.p,
		s:        plan.s,
		Strategy: StrategySplit,
		Verdicts: core.PlanVerdicts{Disjoint: core.VerdictYes, Local: core.VerdictYes},
	}
	if segs := plan.s.Split("bbb"); len(segs) != 0 {
		t.Fatalf("expected zero segments, got %v", segs)
	}
	got, err := e.Extract(context.Background(), plan, "bbb")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("zero-segment split yielded %v", got)
	}
	streamed, err := e.ExtractReader(context.Background(), plan, strings.NewReader("bbb"))
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Len() != 0 {
		t.Fatalf("zero-segment stream yielded %v", streamed)
	}
}

// fixedChunkReader returns at most n bytes per Read, forcing chunk
// boundaries to land mid-segment.
type fixedChunkReader struct {
	s string
	n int
}

func (r *fixedChunkReader) Read(p []byte) (int, error) {
	if len(r.s) == 0 {
		return 0, io.EOF
	}
	n := r.n
	if n > len(r.s) {
		n = len(r.s)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.s[:n])
	r.s = r.s[n:]
	return n, nil
}

func TestStreamChunkBoundaryMidSegment(t *testing.T) {
	e := newTestEngine()
	plan := splitOnly(mustPlan(t, e, Request{Spanner: emailFormula, Splitter: sentenceFormula}))
	want, err := e.Extract(context.Background(), plan, emailDoc)
	if err != nil {
		t.Fatal(err)
	}
	// Every chunk size from 1 (worst case: every boundary mid-segment)
	// to beyond the document length must give identical results.
	for n := 1; n <= len(emailDoc)+1; n++ {
		got, err := e.ExtractReader(context.Background(), plan, &fixedChunkReader{s: emailDoc, n: n})
		if err != nil {
			t.Fatalf("chunk=%d: %v", n, err)
		}
		if !got.Equal(want) {
			t.Fatalf("chunk=%d: streamed %v != one-shot %v", n, got, want)
		}
	}
}

func TestStreamMatchesOneShotOnCorpus(t *testing.T) {
	doc := corpus.Reviews(7, 40)
	joined := strings.Join(doc, "\n")
	e := New(Config{Workers: 4, Batch: 8, ChunkSize: 1 << 10})
	plan := reviewPlan()
	want := parallel.SplitEval(plan.ps, parallel.SegmentsOf(joined, plan.s.Split(joined)), 4)
	got, err := e.ExtractReader(context.Background(), plan, strings.NewReader(joined))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("streamed corpus disagrees with one-shot split eval: %d vs %d tuples", got.Len(), want.Len())
	}
	if got.Len() == 0 {
		t.Fatal("corpus unexpectedly produced no tuples")
	}
}

func TestExtractReaderCancellation(t *testing.T) {
	e := newTestEngine()
	plan := mustPlan(t, e, Request{Spanner: emailFormula, Splitter: sentenceFormula})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.ExtractReader(ctx, plan, strings.NewReader(emailDoc))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSequentialFallbackBuffersStream(t *testing.T) {
	// No splitter: the plan is sequential and ExtractReader must buffer
	// the stream and still agree with direct evaluation.
	e := newTestEngine()
	plan := mustPlan(t, e, Request{Spanner: emailFormula})
	if plan.Strategy != StrategySequential {
		t.Fatalf("strategy = %v, want sequential", plan.Strategy)
	}
	got, err := e.ExtractReader(context.Background(), plan, &fixedChunkReader{s: emailDoc, n: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Spanner().Eval(emailDoc)
	if !got.Equal(want) {
		t.Fatalf("buffered stream %v != direct eval %v", got, want)
	}
}

func TestPlanCacheHitAndStats(t *testing.T) {
	e := newTestEngine()
	req := Request{Spanner: emailFormula, Splitter: sentenceFormula}
	p1, hit1, err := e.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 {
		t.Fatal("first Plan reported a cache hit")
	}
	p2, hit2, err := e.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 || p2 != p1 {
		t.Fatalf("second Plan: hit=%v same=%v, want cached identity", hit2, p2 == p1)
	}
	st := e.Stats()
	if st.PlanCache.Hits != 1 || st.PlanCache.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", st.PlanCache)
	}
}

func TestNonDisjointSplitterStreamsViaBuffer(t *testing.T) {
	// Trigrams are not disjoint; the engine must refuse incremental
	// segmentation and still return correct results by buffering.
	tri := library.NGrams(3)
	if tri.IsDisjoint() {
		t.Fatal("trigrams unexpectedly disjoint")
	}
	ng := tri.Automaton()
	plan := &Plan{
		p:        ng,
		ps:       ng,
		s:        tri,
		Strategy: StrategySplit,
		Verdicts: core.PlanVerdicts{Disjoint: core.VerdictNo},
	}
	e := newTestEngine()
	doc := "one two three four five"
	want := parallel.SplitEval(ng, parallel.SegmentsOf(doc, tri.Split(doc)), 2)
	got, err := e.ExtractReader(context.Background(), plan, &fixedChunkReader{s: doc, n: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("buffered non-disjoint stream %v != one-shot %v", got, want)
	}
}

func TestConcurrentPlansSingleFlight(t *testing.T) {
	e := newTestEngine()
	req := Request{Spanner: emailFormula, Splitter: sentenceFormula}
	const n = 16
	var wg sync.WaitGroup
	plans := make([]*Plan, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, _, err := e.Plan(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if plans[i] != plans[0] {
			t.Fatal("concurrent identical requests produced distinct plans")
		}
	}
	st := e.Stats().PlanCache
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 compilation", st.Misses)
	}
	if st.Hits+st.Coalesced != n-1 {
		t.Fatalf("hits+coalesced = %d, want %d", st.Hits+st.Coalesced, n-1)
	}
}

func TestMaxDocBufferStreaming(t *testing.T) {
	// A boundary-less document grows the carry-over past the budget; the
	// streaming path must fail with ErrDocTooLarge instead of buffering
	// without bound.
	e := New(Config{Workers: 2, ChunkSize: 8, MaxDocBuffer: 32})
	plan := mustPlan(t, e, Request{Spanner: emailFormula, Splitter: sentenceFormula})
	if !e.WillStream(plan) {
		t.Fatal("expected a streaming plan (the sentence splitter is proven local)")
	}
	noBoundaries := strings.Repeat("a", 128) // no sentence terminator anywhere
	_, err := e.ExtractReader(context.Background(), plan, strings.NewReader(noBoundaries))
	if !errors.Is(err, ErrDocTooLarge) {
		t.Fatalf("err = %v, want ErrDocTooLarge", err)
	}
	// A document of the same length WITH boundaries streams fine: the
	// carry-over stays below the budget.
	withBoundaries := strings.Repeat("aaaaaaa. ", 14)
	if _, err := e.ExtractReader(context.Background(), plan, strings.NewReader(withBoundaries)); err != nil {
		t.Fatalf("bounded stream with boundaries failed: %v", err)
	}
}

func TestMaxDocBufferBuffered(t *testing.T) {
	e := New(Config{Workers: 2, MaxDocBuffer: 16})
	plan := mustPlan(t, e, Request{Spanner: emailFormula}) // sequential: buffers
	_, err := e.ExtractReader(context.Background(), plan, strings.NewReader(strings.Repeat("x", 64)))
	if !errors.Is(err, ErrDocTooLarge) {
		t.Fatalf("err = %v, want ErrDocTooLarge", err)
	}
}

func TestProvenLocalStreamsWithoutOverride(t *testing.T) {
	// The sentence splitter is proven local by the plan's verdict, so a
	// default engine streams it incrementally, and the streamed-document
	// counter records it.
	e := New(Config{Workers: 2, ChunkSize: 4})
	plan := mustPlan(t, e, Request{Spanner: emailFormula, Splitter: sentenceFormula})
	if plan.Verdicts.Local != core.VerdictYes {
		t.Fatalf("verdicts = %+v, want local=yes", plan.Verdicts)
	}
	if !e.WillStream(plan) {
		t.Fatal("proven-local plan must stream without any override")
	}
	doc := strings.Repeat(emailDoc+" ", 2*breakEven/len(emailDoc)) // too long to be evaluated whole
	got, err := e.ExtractReader(context.Background(), plan, &fixedChunkReader{s: doc, n: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Extract(context.Background(), plan, doc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("streamed result disagrees with one-shot")
	}
	if st := e.Stats(); st.StreamedDocs != 1 {
		t.Fatalf("stats = %+v, want 1 streamed doc", st)
	}
}

// nonLocalSplitterFormula is disjoint — every '.'-separated block except
// the first — but not local: a suffix re-split from a cut drops its own
// first block, so the locality procedure must refuse it.
const nonLocalSplitterFormula = `[^.]*\.([^.]*\.)*(x{[^.]*})(\.[^.]*)*`

func TestUnprovenSplitterBuffersUnlessForced(t *testing.T) {
	// A disjoint splitter the procedure cannot prove local must buffer.
	e := New(Config{Workers: 2, ChunkSize: 4})
	base := mustPlan(t, e, Request{Spanner: emailFormula, Splitter: nonLocalSplitterFormula})
	if base.Verdicts.Disjoint != core.VerdictYes {
		t.Fatalf("verdicts = %+v, want a disjoint splitter", base.Verdicts)
	}
	if base.Verdicts.Local != core.VerdictNo {
		t.Fatalf("verdicts = %+v, want local=no", base.Verdicts)
	}
	// The pair is not self-splittable, so force the split strategy to
	// isolate WillStream's locality gate.
	forced := &Plan{Req: base.Req, p: base.p, ps: base.p, s: base.SplitterOf(), Strategy: StrategySplit, Verdicts: base.Verdicts}
	if e.WillStream(forced) {
		t.Fatal("unproven splitter must not stream")
	}
}

func TestMaxDocBufferInline(t *testing.T) {
	// The inline-document path must enforce the same budget as the
	// reader paths (it previously did not, leaving the daemon's JSON
	// path bounded only by the HTTP body limit).
	e := New(Config{Workers: 2, MaxDocBuffer: 16})
	plan := mustPlan(t, e, Request{Spanner: emailFormula, Splitter: sentenceFormula})
	_, err := e.Extract(context.Background(), plan, strings.Repeat("x", 64))
	if !errors.Is(err, ErrDocTooLarge) {
		t.Fatalf("err = %v, want ErrDocTooLarge", err)
	}
	// At or under the budget the document evaluates normally.
	if _, err := e.Extract(context.Background(), plan, "a@b. c@d."); err != nil {
		t.Fatalf("in-budget document failed: %v", err)
	}
	// Unlimited budget (negative) must not reject anything.
	unbounded := New(Config{Workers: 2, MaxDocBuffer: -1})
	plan = mustPlan(t, unbounded, Request{Spanner: emailFormula, Splitter: sentenceFormula})
	if _, err := unbounded.Extract(context.Background(), plan, strings.Repeat("x", 1<<16)); err != nil {
		t.Fatalf("unlimited engine rejected a document: %v", err)
	}
}

func TestCancelledOriginatorDoesNotPoisonWaiters(t *testing.T) {
	// The plan build is detached from the first requester's context: a
	// cancelled originator must not fail later identical requests.
	e := newTestEngine()
	req := Request{Spanner: emailFormula, Splitter: sentenceFormula}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.Plan(ctx, req); err != context.Canceled {
		t.Fatalf("cancelled Plan: err = %v, want context.Canceled", err)
	}
	plan, _, err := e.Plan(context.Background(), req)
	if err != nil || plan == nil {
		t.Fatalf("follow-up Plan failed: plan=%v err=%v", plan, err)
	}
}

// stalledPipe returns the server end of a net.Pipe — a reader with real
// read deadlines, which the stall guard can interrupt — whose client end
// writes data, if any, and then goes silent until the test ends.
func stalledPipe(t *testing.T, data string) net.Conn {
	t.Helper()
	server, client := net.Pipe()
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	if data != "" {
		go io.WriteString(client, data)
	}
	return server
}

func TestExtractReaderCancelWithStalledReader(t *testing.T) {
	// Cancellation must unblock ExtractReader even when the reader never
	// returns by itself: the stall guard gives the blocked Read up through
	// its read deadline, and the call honors ctx.
	e := newTestEngine()
	plan := mustPlan(t, e, Request{Spanner: emailFormula, Splitter: sentenceFormula})
	r := stalledPipe(t, "")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := e.ExtractReader(ctx, plan, r)
		done <- err
	}()
	select {
	case err := <-done:
		// The deadline error must carry both the stdlib sentinel and the
		// engine's typed ErrDeadlineExceeded (the daemon's 504 mapping).
		if !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded wrapped in ErrDeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ExtractReader did not return after cancellation with a stalled reader")
	}
}

func TestExtractReaderStallTimeout(t *testing.T) {
	// With ReadTimeout set, a stream that stops making read progress must
	// fail promptly with the typed ErrReadStalled (the daemon's 408
	// mapping) — on both ingestion paths.
	for _, stream := range []bool{false, true} {
		e := New(Config{Workers: 2, Batch: 4, ReadTimeout: 50 * time.Millisecond})
		req := Request{Spanner: emailFormula}
		if stream {
			req.Splitter = sentenceFormula
		}
		plan := mustPlan(t, e, req)
		if e.WillStream(plan) != stream {
			t.Fatalf("WillStream = %v, want %v", !stream, stream)
		}
		r := stalledPipe(t, emailDoc)
		done := make(chan error, 1)
		go func() {
			_, err := e.ExtractReader(context.Background(), plan, r)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrReadStalled) {
				t.Fatalf("stream=%v: err = %v, want ErrReadStalled", stream, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("stream=%v: ExtractReader did not return on a stalled stream", stream)
		}
	}
}

func TestExtractReaderStallTimeoutNotTriggeredByProgress(t *testing.T) {
	// A slow but progressing stream must NOT trip the guard: the timeout
	// bounds time-to-next-byte, not total transfer time.
	e := New(Config{Workers: 2, ReadTimeout: 80 * time.Millisecond})
	plan := mustPlan(t, e, Request{Spanner: emailFormula, Splitter: sentenceFormula})
	pr, pw := net.Pipe()
	defer pr.Close()
	go func() {
		for _, b := range []byte(emailDoc) {
			pw.Write([]byte{b})
			time.Sleep(5 * time.Millisecond) // well under the timeout, total well over it
		}
		pw.Close()
	}()
	rel, err := e.ExtractReader(context.Background(), plan, pr)
	if err != nil {
		t.Fatalf("slow-but-progressing stream failed: %v", err)
	}
	want, werr := e.Extract(context.Background(), plan, emailDoc)
	if werr != nil {
		t.Fatalf("reference Extract: %v", werr)
	}
	if rel.String() != want.String() {
		t.Fatalf("stalled-guarded result diverged:\n got %s\nwant %s", rel, want)
	}
}

func TestRequestWorkersCapsParallelismNotResults(t *testing.T) {
	// A per-request worker budget must not change results, and the
	// snapshot must report it.
	full := New(Config{Workers: 4})
	capped := New(Config{Workers: 4, RequestWorkers: 1})
	if got := capped.Stats().RequestWorkers; got != 1 {
		t.Fatalf("Stats().RequestWorkers = %d, want 1", got)
	}
	req := Request{Spanner: emailFormula, Splitter: sentenceFormula}
	doc := strings.Repeat(emailDoc+" ", 2*breakEven/len(emailDoc)) // long enough for the uncapped engine to split
	want, err := full.Extract(context.Background(), mustPlan(t, full, req), doc)
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	got, err := capped.Extract(context.Background(), mustPlan(t, capped, req), doc)
	if err != nil {
		t.Fatalf("capped: %v", err)
	}
	if got.String() != want.String() {
		t.Fatalf("RequestWorkers=1 changed results:\n got %s\nwant %s", got, want)
	}
}
