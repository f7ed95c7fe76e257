package engine

import (
	"context"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/library"
	"repro/internal/parallel"
	"repro/internal/regexformula"
	"repro/internal/span"
	"repro/internal/vsa"
)

// The per-document choice between the two sides of P = P_S ∘ S rests on
// the theorem holding on the bytes the engine returns, at the seam where
// the choice flips. These tests pin that: for plans whose verdict is an
// honest yes, evaluating whole, evaluating split at either grain — P_S per
// segment, P per chunk of segments (through parallel directly, so no
// engine choice is involved) — and the reference P.Eval agree tuple for
// tuple at breakEven − 1, breakEven, breakEven + 1 and around them, and
// around the chunk size; Answer, on a document and on a stream, takes the route splitPays and
// chunked name and return the same tuples; a plan without the verdict
// never leaves the split route, and one missing either of chunked's two
// proofs never leaves the per-segment grain.

// decidedPlan builds a plan from library automata the way Plan.decide does
// from formulas — a splitter artifact, then the (P, S) question: the
// verdicts are the decision procedures' own, so a yes is a proof, not a
// test fixture's say-so.
func decidedPlan(t testing.TB, p, ps *vsa.Automaton, s *core.Splitter) *Plan {
	t.Helper()
	art, err := newSplitterArtifact("", s.Automaton(), 0)
	if err != nil {
		t.Fatalf("splitter: %v", err)
	}
	plan := &Plan{p: p}
	if err := plan.decideSplit(art, ps, 0); err != nil || plan.Strategy != StrategySplit || plan.Verdicts.Local == core.VerdictUnknown {
		t.Fatalf("verdicts %+v, err %v; the pair must be decided split-correct and its splitter's locality decided", plan.Verdicts, err)
	}
	plan.warm()
	return plan
}

// answer is Answer for a plan of one member: its relation and the route,
// for doc or, when r is non-nil, the stream r. A plan assembled by hand
// around P has no slots; it answers as its one member.
func answer(ctx context.Context, e *Engine, plan *Plan, doc string, r io.Reader) (*span.Relation, Execution, error) {
	if plan.slot == nil {
		one := *plan
		one.slot, one.errs = []int{0}, []error{nil}
		plan = &one
	}
	results, exec, err := e.Answer(ctx, plan, doc, r)
	return results[0].Rel, exec, err
}

// sentimentInSentence is a split-spanner for NegativeSentiment by
// Sentences that is not NegativeSentiment: inside a sentence there is no
// terminator to look for, so it accepts only a space (or the segment
// start) before "bad". On whole documents the two differ — on
// "x.bad tea" only P matches.
func sentimentInSentence() *vsa.Automaton {
	return regexformula.MustCompile(`(.* )?bad (y{[a-z]+})(([^a-z].*)?|)`)
}

// wordsWithoutQ splits a document into its space-separated words that hold
// no 'q'; badWordsWithoutQ selects those of its words that start with
// "bad", which makes it self-splittable by wordsWithoutQ. The splitter is
// cut independent even though a 'q' kills the run that opened its word:
// that run has emitted nothing yet. It is the pair's reason to be here — a
// splitter whose open runs do not all accept every continuation.
const (
	wordsWithoutQ    = `(x{[^q ]+})([ ].*)?|.*[ ](x{[^q ]+})([ ].*)?`
	badWordsWithoutQ = `(y{bad[^q ]*})([ ].*)?|.*[ ](y{bad[^q ]*})([ ].*)?`
)

// executionCase is one licensed plan with a generator of documents of
// any requested length.
type executionCase struct {
	name string
	plan *Plan
	doc  func(seed uint64, n int) string
}

// executionCases decides the plans afresh on every call — a few
// milliseconds — so each test and the fuzz target own theirs.
func executionCases(t testing.TB) []executionCase {
	neg := library.NegativeSentiment()
	mail := library.Emails()
	bad := regexformula.MustCompile(badWordsWithoutQ)
	emails := func(seed uint64, n int) string {
		unit := emailDoc + " "
		rot := int(seed) % len(unit)
		return (strings.Repeat(unit, n/len(unit)+2))[rot : rot+n]
	}
	// reviewDoc sizes its corpus from n/256 reviews and so needs n ≥ 256.
	reviews := func(seed uint64, n int) string { return reviewDoc(seed, max(n, 256))[:n] }
	return []executionCase{
		{"sentiment/sentences/self", decidedPlan(t, neg, neg, library.Sentences()), reviews},
		{"sentiment/sentences/explicit", decidedPlan(t, neg, sentimentInSentence(), library.Sentences()), reviews},
		{"sentiment/paragraphs/self", decidedPlan(t, neg, neg, library.Paragraphs()), reviews},
		{"emails/sentences/self", decidedPlan(t, mail, mail, library.Sentences()), emails},
		{"badwords/words-without-q/self", decidedPlan(t, bad, bad, core.MustSplitter(regexformula.MustCompile(wordsWithoutQ))), reviews},
	}
}

// sameTuples fails unless got holds exactly want's tuples in want's order
// — both are canonical (sorted, deduplicated), so no re-sorting.
func sameTuples(t *testing.T, what string, got, want *span.Relation) {
	t.Helper()
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s: %d tuples, want %d", what, len(got.Tuples), len(want.Tuples))
	}
	for i := range got.Tuples {
		if !got.Tuples[i].Equal(want.Tuples[i]) {
			t.Fatalf("%s: tuple %d = %v, want %v", what, i, got.Tuples[i], want.Tuples[i])
		}
	}
}

// checkExecutionChoice holds one (plan, document) pair to the contract in
// the file comment. Every plan of executionCases has a proven-local
// splitter, so its split route is the chunked one. e must have at
// least two request workers, so that the document's length alone decides
// its route.
func checkExecutionChoice(t *testing.T, e *Engine, plan *Plan, doc string, readSizes ...int) {
	t.Helper()
	ctx := context.Background()
	want := plan.p.Eval(doc)
	route := ExecWhole
	if len(doc) >= breakEven {
		route = ExecChunked
	}
	if pays := e.splitPays(plan, len(doc)); pays != (route != ExecWhole) || !chunked(plan) {
		t.Fatalf("%d bytes: splitPays = %v, chunked = %v", len(doc), pays, chunked(plan))
	}
	spans := plan.s.Split(doc)
	split := parallel.SplitEval(plan.ps, parallel.SegmentsOf(doc, spans), e.cfg.RequestWorkers)
	sameTuples(t, "split route vs P.Eval", split, want)
	// Chunk grain at the engine's size and at sizes that cut after every
	// span and every few: P on each chunk, whatever the document's length.
	for _, size := range []int{1, 97, e.cfg.ChunkSize} {
		f, _ := plan.s.NewCutFinder()
		chunks := parallel.SplitEval(plan.p, parallel.SegmentsOf(doc, f.Chunks(doc, size)), e.cfg.RequestWorkers)
		sameTuples(t, "chunked route vs P.Eval", chunks, want)
	}
	got, exec, err := answer(ctx, e, plan, doc, nil)
	if err != nil || exec != route {
		t.Fatalf("%d bytes: Answer took the %v route (err %v), want %v", len(doc), exec, err, route)
	}
	sameTuples(t, "Answer vs P.Eval", got, want)
	for _, n := range readSizes {
		got, exec, err := answer(ctx, e, plan, "", &fixedChunkReader{s: doc, n: n})
		if err != nil || exec != route {
			t.Fatalf("%d bytes in reads of %d: streamed Answer took the %v route (err %v), want %v", len(doc), n, exec, err, route)
		}
		sameTuples(t, "streamed Answer vs P.Eval", got, want)
	}
}

func TestExecutionChoiceEquivalence(t *testing.T) {
	e := New(Config{Workers: 2})
	rng := rand.New(rand.NewSource(16))
	for _, c := range executionCases(t) {
		t.Run(c.name, func(t *testing.T) {
			if !e.WillStream(c.plan) {
				t.Fatalf("verdicts %+v: the plan must stream, or streamed Answer never reaches the look-ahead", c.plan.Verdicts)
			}
			lengths := []int{0, 1, breakEven - 1, breakEven, breakEven + 1, rng.Intn(breakEven), breakEven + rng.Intn(2*breakEven)}
			for i, n := range lengths {
				checkExecutionChoice(t, e, c.plan, c.doc(uint64(i)+1, n), 1, 7, 4096)
			}
			// Around the chunk size: the last chunk is one byte, is missing
			// one, and the document is a few chunks and a bit.
			size := e.cfg.ChunkSize
			for i, n := range []int{size - 1, size, size + 1, 3*size + 7} {
				checkExecutionChoice(t, e, c.plan, c.doc(uint64(i)+8, n), 7, 4096, size)
			}
			// filler has none of the splitters' separators: one span that
			// straddles three feeds and closes only after them, and a
			// document whose only span closes at its end — no feed yields
			// a chunk before the flush does.
			filler := strings.Repeat("so bad weather cc bob@corp ", (2*size+breakEven)/27+1)
			checkExecutionChoice(t, e, c.plan, c.doc(12, breakEven)+"\n"+filler+".\n"+c.doc(13, breakEven), 4096, size)
			checkExecutionChoice(t, e, c.plan, filler, 4096, size)
		})
	}
	st := e.Stats()
	if st.WholeDocs == 0 || st.StreamedDocs == 0 || st.WholeDocs+st.Executor.Runs != st.Documents {
		t.Fatalf("stats = %+v: want every document either evaluated whole or run on the executor, and both kinds seen", st)
	}
	if st.ChunkedDocs != st.Executor.Runs || st.Segments != 0 || st.Executor.Segments == 0 {
		t.Fatalf("stats = %+v: want every executor run a chunked document, chunks counted, and no splitter spans", st)
	}
}

// TestChunkedNeedsBothProofs: the chunk grain is licensed by the plan's
// own verdict and the splitter's locality verdict — cut independence —
// together. Take either away — a forged split plan, a splitter whose
// locality verdict is not yes — and the document stays on the
// per-segment route, reported as "split". The marking plan shows what the
// locality verdict covers beyond nonempty spans: its splitter marks every
// '.' with an empty span, so each chunk of segments would be the empty
// string, P finds nothing in it, and only P_S per segment returns P(d).
// The procedure refuses the splitter: the mark is emitted on the '.' byte,
// which a cut at the mark removes.
func TestChunkedNeedsBothProofs(t *testing.T) {
	licensed := executionCases(t)[0].plan
	unproven := *licensed
	unproven.Verdicts.Local = core.VerdictUnknown
	marks := decidedPlan(t, regexformula.MustCompile(`.*(y{})\..*`), regexformula.MustCompile(`y{}`),
		core.MustSplitter(regexformula.MustCompile(`.*(x{})\..*`)))
	if marks.Verdicts.Local != core.VerdictNo {
		t.Fatalf("the marking splitter must not be proven local (verdicts %+v)", marks.Verdicts)
	}
	reviews := reviewDoc(5, 2*breakEven)
	for _, c := range []struct {
		name string
		plan *Plan
		doc  string
	}{
		{"forged", splitOnly(licensed), reviews},
		{"not-proven-local", &unproven, reviews},
		{"not-local", marks, strings.Repeat("ab.", breakEven)},
	} {
		e := New(Config{Workers: 2})
		if e.WillStream(c.plan) {
			t.Fatalf("%s: a plan that does not run chunked must buffer", c.name)
		}
		want := c.plan.p.Eval(c.doc)
		got, exec, err := answer(context.Background(), e, c.plan, c.doc, nil)
		if err != nil || exec != ExecSplit {
			t.Fatalf("%s: Answer took the %v route (err %v), want %v", c.name, exec, err, ExecSplit)
		}
		sameTuples(t, c.name+": Answer vs P.Eval", got, want)
		got, exec, err = answer(context.Background(), e, c.plan, "", strings.NewReader(c.doc))
		if err != nil || exec != ExecSplit {
			t.Fatalf("%s: streamed Answer took the %v route (err %v), want %v", c.name, exec, err, ExecSplit)
		}
		sameTuples(t, c.name+": streamed Answer vs P.Eval", got, want)
		if st := e.Stats(); st.ChunkedDocs != 0 || st.Executor.Runs != 2 {
			t.Fatalf("%s: stats %+v, want two executor runs and no chunked document", c.name, st)
		}
	}
	if exec := ExecChunked.String(); exec != "chunked" {
		t.Fatalf("ExecChunked reads %q", exec)
	}
}

// TestStreamsExactlyWhenChunked: the streamed route has one grain. A
// stream is segmented incrementally exactly when the plan runs chunked;
// every other split plan — the marking splitter, which is not local, a
// forged plan, an unproven splitter — buffers the stream and answers as
// Answer on the document does, per segment. So does a plan whose verdicts are all forged over
// a non-disjoint splitter: it has no scanner to stream with.
func TestStreamsExactlyWhenChunked(t *testing.T) {
	licensed := executionCases(t)[0].plan
	unproven := *licensed
	unproven.Verdicts.Local = core.VerdictUnknown
	marks := decidedPlan(t, regexformula.MustCompile(`.*(y{})\..*`), regexformula.MustCompile(`y{}`),
		core.MustSplitter(regexformula.MustCompile(`.*(x{})\..*`)))
	scannerless := &Plan{
		p: licensed.p, ps: licensed.p, s: library.NGrams(2),
		Strategy: StrategySplit,
		Verdicts: core.PlanVerdicts{Disjoint: core.VerdictYes, Local: core.VerdictYes, SelfSplittable: core.VerdictYes},
	}
	reviews := reviewDoc(5, 2*breakEven)
	for _, c := range []struct {
		name string
		plan *Plan
		doc  string
		exec Execution
	}{
		{"licensed", licensed, reviews, ExecChunked},
		{"marks", marks, strings.Repeat("ab.", 2*breakEven/3+1), ExecSplit},
		{"forged", splitOnly(licensed), reviews, ExecSplit},
		{"not-proven-local", &unproven, reviews, ExecSplit},
		{"scanner-less", scannerless, reviews, ExecSplit},
	} {
		e := New(Config{Workers: 2})
		if e.WillStream(c.plan) != chunked(c.plan) {
			t.Fatalf("%s: WillStream = %v, chunked = %v", c.name, e.WillStream(c.plan), chunked(c.plan))
		}
		want, exec, err := answer(context.Background(), e, c.plan, c.doc, nil)
		if err != nil || exec != c.exec {
			t.Fatalf("%s: Answer took the %v route (err %v), want %v", c.name, exec, err, c.exec)
		}
		got, exec, err := answer(context.Background(), e, c.plan, "", strings.NewReader(c.doc))
		if err != nil || exec != c.exec {
			t.Fatalf("%s: streamed Answer took the %v route (err %v), want %v", c.name, exec, err, c.exec)
		}
		sameTuples(t, c.name+": streamed Answer vs Answer", got, want)
		wantStreamed := uint64(0)
		if c.exec == ExecChunked {
			wantStreamed = 1
		}
		if streamed := e.Stats().StreamedDocs; streamed != wantStreamed {
			t.Fatalf("%s: %d streamed documents, want %d", c.name, streamed, wantStreamed)
		}
	}
}

// TestWholeRouteTouchesNoExecutor pins what the whole route skips and
// what it reports: no segmentation, no executor run, no merge — one eval
// stage interval and one whole document.
func TestWholeRouteTouchesNoExecutor(t *testing.T) {
	plan := executionCases(t)[0].plan
	doc := reviewDoc(3, 2<<10)
	for _, reader := range []bool{false, true} {
		e := New(Config{Workers: 2})
		var exec Execution
		var err error
		if reader {
			_, exec, err = answer(context.Background(), e, plan, "", strings.NewReader(doc))
		} else {
			_, exec, err = answer(context.Background(), e, plan, doc, nil)
		}
		if err != nil || exec != ExecWhole {
			t.Fatalf("reader=%v: route %v, err %v", reader, exec, err)
		}
		st := e.Stats()
		if st.Documents != 1 || st.WholeDocs != 1 || st.StreamedDocs != 0 || st.Bytes != uint64(len(doc)) || st.Segments != 0 {
			t.Fatalf("reader=%v: counters %+v", reader, st)
		}
		if st.Stages["eval"].Count != 1 || st.Stages["segment"].Count != 0 || st.Stages["merge"].Count != 0 || st.Executor.Runs != 0 {
			t.Fatalf("reader=%v: stages %+v, executor %+v; want one eval interval and nothing else", reader, st.Stages, st.Executor)
		}
	}
}

// TestUnlicensedPlanNeverRunsWhole: without a yes verdict the engine has
// no proof that P(d) equals (P_S ∘ S)(d), so a split plan — forced, or
// forged — keeps split semantics at every size and worker budget. The
// plan here makes the difference visible: its split-spanner is not
// split-correct for its spanner.
func TestUnlicensedPlanNeverRunsWhole(t *testing.T) {
	licensed := executionCases(t)[0].plan
	forged := splitOnly(licensed)
	forged.ps = library.Emails() // (P_S ∘ S)(d) ≠ P(d)
	doc := "bad tea. mail ann@example now."
	want := parallel.SplitEval(forged.ps, parallel.SegmentsOf(doc, forged.s.Split(doc)), 1)
	if want.Len() != 1 {
		t.Fatalf("split semantics found %v, want the one address", want)
	}
	for _, workers := range []int{1, 2} {
		e := New(Config{Workers: workers, ChunkSize: 7})
		got, exec, err := answer(context.Background(), e, forged, doc, nil)
		if err != nil || exec != ExecSplit {
			t.Fatalf("workers=%d: Answer took the %v route (err %v)", workers, exec, err)
		}
		sameTuples(t, "Answer", got, want)
		got, exec, err = answer(context.Background(), e, forged, "", strings.NewReader(doc))
		if err != nil || exec != ExecSplit {
			t.Fatalf("workers=%d: streamed Answer took the %v route (err %v)", workers, exec, err)
		}
		sameTuples(t, "streamed Answer", got, want)
		if st := e.Stats(); st.WholeDocs != 0 || st.StreamedDocs != 0 {
			t.Fatalf("workers=%d: stats %+v, want no whole documents and none streamed", workers, st)
		}
		// The licensed plan on one worker goes the other way at any size.
		if _, exec, _ := answer(context.Background(), e, licensed, reviewDoc(1, 2*breakEven), nil); (exec == ExecWhole) != (workers == 1) {
			t.Fatalf("workers=%d: a licensed %d-byte document took the %v route", workers, 2*breakEven, exec)
		}
	}
}

// FuzzWholeVsSplit drives checkExecutionChoice with fuzzed documents.
// Raw fuzz inputs are far shorter than breakEven and would only ever see
// the whole route, so shape stretches the input (repeated, then cut) to a
// length at or around the seam; read is the reader's chunk size.
func FuzzWholeVsSplit(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(7), "so bad tea. fine day! bad luck\nbad")
	f.Add(uint8(1), uint8(1), uint16(1), "x.bad tea. a bad day.bad")
	f.Add(uint8(2), uint8(2), uint16(4096), "bad one\n\nbad two. bad three\n")
	f.Add(uint8(3), uint8(3), uint16(33), "write ann@example or bob@corp. eve@host!")
	f.Add(uint8(0), uint8(4), uint16(500), "bad \x00\xff. bad b")
	f.Add(uint8(3), uint8(5), uint16(3), "")
	e := New(Config{Workers: 2})
	cases := executionCases(f)
	f.Fuzz(func(t *testing.T, sel, shape uint8, read uint16, doc string) {
		c := cases[int(sel)%len(cases)]
		n := len(doc)
		switch shape % 6 {
		case 1:
			n = breakEven - 1
		case 2:
			n = breakEven
		case 3:
			n = breakEven + 1
		case 4:
			n = breakEven + len(doc)
		case 5:
			n = min(len(doc), 1<<10) // short enough for one-byte reads to be cheap
			read = 1
		}
		if n > 0 && len(doc) > 0 {
			doc = strings.Repeat(doc, n/len(doc)+1)[:n]
		}
		checkExecutionChoice(t, e, c.plan, doc, int(read)+1)
	})
}
