package engine

import (
	"context"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/library"
	"repro/internal/parallel"
	"repro/internal/refword"
	"repro/internal/regexformula"
	"repro/internal/reltest"
	"repro/internal/span"
	"repro/internal/vsa"
)

// The other differentials of this package compare neighbouring layers and
// are anchored at EvalReference, which shares the automaton pipeline with
// the code under test. This one is anchored at the paper's semantics: on
// documents short enough to enumerate, the expected relation is
// {t : the ref-word of (d, t) is accepted by P} over all span tuples of d
// (internal/refword, which simulates the automaton's extended transitions
// and nothing else), and every route a streamed document can take is held
// to it — including the tail chunk a scanner bail leaves, and the buffered
// route from a stream with and without a declared length.

// refwordRelation enumerates ⟦a⟧(d) by the definition.
func refwordRelation(a *vsa.Automaton, doc string) *span.Relation {
	rel := span.NewRelation(a.Vars...)
	t := make(span.Tuple, a.Arity())
	var fill func(v int)
	fill = func(v int) {
		if v == len(t) {
			if refword.Accepts(a, refword.Encode(doc, t)) {
				rel.Tuples = append(rel.Tuples, slices.Clone(t))
			}
			return
		}
		for i := 1; i <= len(doc)+1; i++ {
			for j := i; j <= len(doc)+1; j++ {
				t[v] = span.Span{Start: i, End: j}
				fill(v + 1)
			}
		}
	}
	fill(0)
	return rel
}

// oracleDocs returns the case's table plus seeded random concatenations of
// its fragments, none longer than limit bytes.
func oracleDocs(rng *rand.Rand, table, fragments []string, limit, random int) []string {
	docs := slices.Clone(table)
	for range random {
		var b strings.Builder
		for n := rng.Intn(8); n > 0; n-- {
			if f := fragments[rng.Intn(len(fragments))]; b.Len()+len(f) <= limit {
				b.WriteString(f)
			}
		}
		docs = append(docs, b.String())
	}
	return docs
}

// bailingPlan is a pair whose splitter commits spans and then bails: S
// selects every maximal run of a/b — always, so the scanner commits those
// closes — and marks every ',' with an empty span only on documents that
// end in '!', which no scanner can commit. P is S itself and P_S selects
// the whole segment, so P = P_S ∘ S on every document. S is not local by
// the procedure's standard (its output depends on the suffix), but neither
// rule looks at the prefix, so cutting at a span start — what the bail
// guard does — is sound. The plan forges the locality verdict without a
// split verdict, so its splitter reaches the chunk grain only here, never
// through the engine, which buffers it.
func bailingPlan() *Plan {
	runs := func(v string) string {
		run := "(" + v + "{[ab]+})"
		return run + "([^ab].*)?|.*[^ab]" + run + "([^ab].*)?|.*(" + v + "{}),.*!"
	}
	return &Plan{
		p:        regexformula.MustCompile(runs("y")),
		ps:       regexformula.MustCompile("y{.*}"),
		s:        core.MustSplitter(regexformula.MustCompile(runs("x"))),
		Strategy: StrategySplit,
		Verdicts: core.PlanVerdicts{Disjoint: core.VerdictYes, Local: core.VerdictYes},
	}
}

func TestRoutesAgainstRefWordOracle(t *testing.T) {
	sentences := []string{"", ".", "bad tea", "x.bad tea. a bad day", "so bad tea! bad\nbad x", "bad a?bad b.bad c\n", "cc bob@corp. a@b!x@"}
	prose := []string{"bad ", "tea", "a", " ", ".", "!", "\n", "?", "@", "b@c", "x1"}
	type oracleCase struct {
		name             string
		plan             *Plan
		table, fragments []string
		limit            int
	}
	var cases []oracleCase
	for _, c := range executionCases(t) {
		cases = append(cases, oracleCase{c.name, c.plan, sentences, prose, 24})
	}
	pay := library.FinanceEvents()
	cases = append(cases,
		oracleCase{"finance/sentences/self", decidedPlan(t, pay, pay, library.Sentences()),
			[]string{"", "Ab paid Cd", "Ab paid C.", "Ab paid Cd."}, []string{"Ab", "Cd", " paid ", ".", " ", "x"}, 11},
		oracleCase{"runs-and-marks/bails", bailingPlan(),
			[]string{"", "ab ,b!", "ab b ,a", "ab,b!", ",!", "ab a,b ,!", "a b a", "ab a,b! ,b"}, []string{"a", "b", "ab", " ", ",", "!", "x"}, 24})

	rng := rand.New(rand.NewSource(22))
	engines := map[int]*Engine{}
	for _, n := range []int{1, 3} {
		engines[n] = New(Config{Workers: 2, ChunkSize: n})
	}
	buffering := New(Config{Workers: 2, ReadTimeout: time.Minute})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, ps, s := c.plan.p, c.plan.ps, c.plan.s
			committedThenBailed, tuples := false, 0
			for _, doc := range oracleDocs(rng, c.table, c.fragments, c.limit, 24) {
				want := refwordRelation(p, doc)
				tuples += want.Len()
				eval := p.Eval(doc)
				hold := func(route string, got *span.Relation) {
					t.Helper()
					if d := reltest.ThreeWayDiff("P.Eval", eval, route, got, want); d != "" {
						t.Fatalf("doc %q: %s", doc, d)
					}
				}
				var spans []span.Span
				for _, tu := range refwordRelation(s.Automaton(), doc).Tuples {
					spans = append(spans, tu[0])
				}
				slices.SortFunc(spans, span.Span.Compare)
				if ref := s.SplitReference(doc); !slices.Equal(ref, spans) {
					t.Fatalf("doc %q: SplitReference = %v, the ref-word semantics give %v", doc, ref, spans)
				}
				hold("P_S ∘ S", parallel.SplitEval(ps, parallel.SegmentsOf(doc, spans), 1))
				// The buffered route — P alone, so nothing streams — from a
				// stream that declares its length and one that does not.
				for _, r := range []io.Reader{strings.NewReader(doc), unsized{strings.NewReader(doc)}} {
					got, _, err := answer(context.Background(), buffering, &Plan{p: p}, "", r)
					if err != nil {
						t.Fatalf("doc %q: Answer on a buffered stream: %v", doc, err)
					}
					hold("Answer on a buffered stream", got)
				}
				for _, n := range []int{1, 3} {
					if err := checkScanRun(t, s, doc, n, spans); err != nil {
						t.Fatalf("doc %q: %v (the ref-word semantics)", doc, err)
					}
					chunks, bailed := chunkedSegments(t, s, doc, n)
					hold("streamed per chunk", parallel.SplitEval(p, chunks, 1))
					if bailed && len(chunks) > 1 {
						committedThenBailed = true
					}
					// The engine's own choice: whole for a licensed plan's
					// small document, buffered and split per segment for the
					// forged one.
					got, _, err := answer(context.Background(), engines[n], c.plan, "", &fixedChunkReader{s: doc, n: n})
					if err != nil {
						t.Fatalf("doc %q read %d: streamed Answer: %v", doc, n, err)
					}
					hold("streamed Answer", got)
				}
			}
			if tuples == 0 {
				t.Fatal("every expected relation was empty")
			}
			if bails := strings.HasSuffix(c.name, "/bails"); bails != committedThenBailed {
				t.Fatalf("a scanner committed spans and then bailed: %v, want %v", committedThenBailed, bails)
			}
		})
	}
}
