package spanners

// Benchmarks, one per paper experiment (for the serving path and its
// per-layer ledger see bench/README.md instead). The E-series
// reproduces the split-then-distribute speedups of the paper's Section 1
// (compare the Sequential and Split sub-benchmarks of each experiment);
// the T-series measures the decision procedures. Corpus sizes are kept
// moderate so `go test -bench=.` finishes in minutes; cmd/splitbench
// runs the same experiments at larger scale.

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/library"
	"repro/internal/parallel"
	"repro/internal/regexformula"
	"repro/internal/vsa"
)

const (
	benchWorkers = 5       // the paper uses 5 cores / a 5-node cluster
	benchBytes   = 1 << 17 // corpus size for the E1-E3 series
	benchDocs    = 400     // collection size for E4-E5
)

func benchNgram(b *testing.B, seedDoc string, n int) {
	sentences := library.Sentences()
	ngram := library.NGrams(n)
	composed := core.Compose(ngram.Automaton(), sentences)
	segs := parallel.SegmentsOf(seedDoc, library.FastSentenceSplit(seedDoc))
	b.Run("Sequential", func(b *testing.B) {
		b.SetBytes(int64(len(seedDoc)))
		for i := 0; i < b.N; i++ {
			composed.Eval(seedDoc)
		}
	})
	b.Run("Split", func(b *testing.B) {
		b.SetBytes(int64(len(seedDoc)))
		for i := 0; i < b.N; i++ {
			parallel.SplitEval(ngram.Automaton(), segs, benchWorkers)
		}
	})
}

// BenchmarkE1WikipediaBigrams is experiment E1 (paper: 2.10x on 5 cores).
func BenchmarkE1WikipediaBigrams(b *testing.B) {
	benchNgram(b, corpus.Wikipedia(1, benchBytes), 2)
}

// BenchmarkE2WikipediaTrigrams is experiment E2 (paper: 3.11x).
func BenchmarkE2WikipediaTrigrams(b *testing.B) {
	benchNgram(b, corpus.Wikipedia(1, benchBytes), 3)
}

// BenchmarkE3PubMedBigrams is experiment E3 (paper: 1.90x).
func BenchmarkE3PubMedBigrams(b *testing.B) {
	benchNgram(b, corpus.PubMed(1, benchBytes), 2)
}

// BenchmarkE4ReutersFinance is experiment E4 (paper: 1.99x on a 5-node
// cluster): whole-article tasks versus sentence tasks on the same pool.
func BenchmarkE4ReutersFinance(b *testing.B) {
	docs := corpus.Reuters(1, benchDocs)
	p := library.FinanceEvents()
	b.Run("WholeDocs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallel.CollectionEval(p, docs, benchWorkers)
		}
	})
	b.Run("SplitTasks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallel.CollectionEvalSplit(p, docs, library.FastSentenceSplit, benchWorkers)
		}
	})
}

// BenchmarkE5AmazonSentiment is experiment E5 (paper: 4.16x).
func BenchmarkE5AmazonSentiment(b *testing.B) {
	docs := corpus.Reviews(1, benchDocs*4)
	p := library.NegativeSentiment()
	b.Run("WholeDocs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallel.CollectionEval(p, docs, benchWorkers)
		}
	})
	b.Run("SplitTasks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallel.CollectionEvalSplit(p, docs, library.FastSentenceSplit, benchWorkers)
		}
	})
}

// BenchmarkT1Containment measures general (Theorem 4.1) versus
// deterministic (Theorem 4.3) containment.
func BenchmarkT1Containment(b *testing.B) {
	pat := strings.Repeat("a", 6)
	a := regexformula.MustCompile(".*y{" + pat + "}.*")
	nd := regexformula.MustCompile(".*y{" + pat + "|" + pat + "b}.*")
	det, err := nd.Determinize(0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("General", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vsa.Contained(a, nd, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Deterministic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vsa.Contained(a, det, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDeterminize measures Proposition 4.4 — the construction behind
// Spanner.Determinize and Spanner.Difference — on a library spanner and
// splitter.
func BenchmarkDeterminize(b *testing.B) {
	for _, c := range []struct {
		name string
		a    *vsa.Automaton
	}{
		{"NegativeSentiment", library.NegativeSentiment()},
		{"Sentences", library.Sentences().Automaton()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.a.Determinize(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkT3Disjointness measures Proposition 5.5 on library splitters.
func BenchmarkT3Disjointness(b *testing.B) {
	for _, c := range []struct {
		name string
		s    *core.Splitter
	}{
		{"Sentences", library.Sentences()},
		{"Trigrams", library.NGrams(3)},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.s.IsDisjoint()
			}
		})
	}
}

func benchSplitCorrectInstance(b *testing.B) (p, ps *vsa.Automaton, s *core.Splitter) {
	b.Helper()
	pat := strings.Repeat("a", 4)
	var err error
	p, err = regexformula.MustCompile("(y{" + pat + "})(b[ab]*)?|[ab]*b(y{" + pat + "})(b[ab]*)?").Determinize(0)
	if err != nil {
		b.Fatal(err)
	}
	ps = p
	sAuto, err := regexformula.MustCompile("(x{[^b]*})(b[^b]*)*|[^b]*(b[^b]*)*b(x{[^b]*})(b[^b]*)*").Determinize(0)
	if err != nil {
		b.Fatal(err)
	}
	return p, ps, core.MustSplitter(sAuto)
}

// BenchmarkT4CoverCondition measures Lemma 5.4 versus Lemma 5.6.
func BenchmarkT4CoverCondition(b *testing.B) {
	p, _, s := benchSplitCorrectInstance(b)
	b.Run("General", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.CoverCondition(p, s, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Polynomial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.CoverConditionPoly(p, s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkT5SplitCorrectness measures Theorem 5.1 versus Theorem 5.7.
func BenchmarkT5SplitCorrectness(b *testing.B) {
	p, ps, s := benchSplitCorrectInstance(b)
	b.Run("General", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SplitCorrect(p, ps, s, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Polynomial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SplitCorrectPoly(p, ps, s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkT6Canonical measures the Proposition 5.9 construction.
func BenchmarkT6Canonical(b *testing.B) {
	p, _, s := benchSplitCorrectInstance(b)
	for i := 0; i < b.N; i++ {
		core.Canonical(p, s)
	}
}

// BenchmarkT7Splittability measures Theorem 5.15 end to end.
func BenchmarkT7Splittability(b *testing.B) {
	p := regexformula.MustCompile(".*y{aaa}.*")
	s := core.MustSplitter(regexformula.MustCompile("(x{[^b]*})(b[^b]*)*|[^b]*(b[^b]*)*b(x{[^b]*})(b[^b]*)*"))
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Splittable(p, s, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalThroughput measures the raw evaluator on corpus text, the
// substrate cost underlying the E-series.
func BenchmarkEvalThroughput(b *testing.B) {
	doc := corpus.Wikipedia(1, 1<<16)
	p := library.NegativeSentiment()
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		p.Eval(doc)
	}
}

// BenchmarkEvalCore is the before/after comparison for the compiled
// evaluation core: the lazy-DFA, byte-class-compressed Eval/EvalBool
// against the retained reference NFA simulations (EvalReference /
// EvalBoolReference — the implementation before this optimization), plus
// split evaluation of the same spanner over a multi-MB corpus. The
// Reference sub-benchmarks are the "before" numbers. Eval runs over
// three match densities — the dense review corpus, a sparse corpus with
// a handful of matches per MB, and a non-matching corpus — because the
// match-window localizer's whole point is that extraction cost should
// track match density, not document length.
func BenchmarkEvalCore(b *testing.B) {
	// Review text, so the extractor genuinely matches: the assignment
	// machinery runs, not just the DFA prescan rejecting everything.
	doc := strings.Join(corpus.Reviews(1, 1<<13), "\n") // several MiB
	p := library.NegativeSentiment()
	p.Prepare()
	segs := parallel.SegmentsOf(doc, library.FastSentenceSplit(doc))
	sparse := corpus.SparseSentiment(1, len(doc), 64<<10)
	nonMatching := corpus.Wikipedia(1, len(doc))
	b.Logf("dense corpus: %d bytes, %d sentence segments, %d tuples",
		len(doc), len(segs), p.Eval(doc).Len())
	b.Logf("sparse corpus: %d bytes, %d tuples; non-matching corpus: %d bytes, %d tuples",
		len(sparse), p.Eval(sparse).Len(), len(nonMatching), p.Eval(nonMatching).Len())
	evalBench := func(doc string) func(*testing.B) {
		return func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				p.Eval(doc)
			}
		}
	}
	evalBoolBench := func(doc string) func(*testing.B) {
		return func(b *testing.B) {
			b.SetBytes(int64(len(doc)))
			for i := 0; i < b.N; i++ {
				p.EvalBool(doc)
			}
		}
	}
	b.Run("EvalBool", evalBoolBench(doc))
	// The non-matching corpus lacks the spanner's mandatory factor; with
	// it appended, not followed by a word, the factor gate lets the
	// document through and EvalBool walks all of it to answer no.
	walked := nonMatching + " bad 1"
	if p.EvalBool(walked) {
		b.Fatal("the non-matching corpus matches")
	}
	b.Run("EvalBoolNonMatching", evalBoolBench(walked))
	b.Run("EvalBoolReference", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			p.EvalBoolReference(doc)
		}
	})
	b.Run("Eval", evalBench(doc))
	b.Run("EvalSparse", evalBench(sparse))
	b.Run("EvalNonMatching", evalBench(nonMatching))
	b.Run("EvalReference", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			p.EvalReference(doc)
		}
	})
	b.Run("SplitEval", func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			parallel.SplitEval(p, segs, benchWorkers)
		}
	})
}

// Formula-level counterparts of the library extractors, used by the
// engine benchmarks (the engine's plan cache is keyed by formula text).
const (
	benchSentimentFormula = "(.*[ .!?\\n])?bad (y{[a-z]+})(([^a-z].*)?|)"
	benchSentenceFormula  = "(x{[^.!?\\n]*})([.!?\\n][^.!?\\n]*)*|" +
		"[^.!?\\n]*([.!?\\n][^.!?\\n]*)*[.!?\\n](x{[^.!?\\n]*})([.!?\\n][^.!?\\n]*)*"
)

// BenchmarkEnginePlanCache measures what the plan cache amortizes: Cold
// pays, on every iteration, formula compilation, the disjointness,
// locality and self-splittability decision procedures, the splitter
// scanner's build (locality is decided on it) and Prepare of both
// automata; Churn is a long-lived engine asked for a never-seen spanner
// (a fresh capture name) over the same sentence splitter on every
// iteration, so it pays the spanner's share of Cold and takes the
// splitter's from the engine's splitter table; Hit serves the memoized
// plan. The gaps are the per-request savings of a long-lived engine over
// the one-shot façade calls.
func BenchmarkEnginePlanCache(b *testing.B) {
	req := ExtractRequest{Spanner: benchSentimentFormula, Splitter: benchSentenceFormula}
	ctx := context.Background()
	b.Run("Cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := NewEngine(EngineConfig{})
			if _, _, err := e.Plan(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Churn", func(b *testing.B) {
		e := NewEngine(EngineConfig{})
		for i := 0; i < b.N; i++ {
			churn := ExtractRequest{
				Spanner:  strings.Replace(benchSentimentFormula, "y{", "c"+strconv.Itoa(i)+"{", 1),
				Splitter: benchSentenceFormula,
			}
			if _, hit, err := e.Plan(ctx, churn); err != nil || hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
		}
	})
	b.Run("Hit", func(b *testing.B) {
		e := NewEngine(EngineConfig{})
		plan, _, err := e.Plan(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if plan.Strategy.String() != "split-parallel" {
			b.Fatalf("expected a split plan, got %v", plan.Strategy)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, hit, err := e.Plan(ctx, req); err != nil || !hit {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
		}
	})
}

// BenchmarkEngineStreaming compares streamed chunked ingestion (the
// engine segments the document incrementally and overlaps evaluation
// with reading) against one-shot ParallelEval on the same multi-MB
// document, on the same worker count.
func BenchmarkEngineStreaming(b *testing.B) {
	doc := corpus.Reviews(1, 1<<13) // ~ several MB of review text
	joined := strings.Join(doc, "\n")
	ctx := context.Background()
	b.Logf("document size: %d bytes", len(joined))
	b.Run("OneShotParallelEval", func(b *testing.B) {
		p := MustCompile(benchSentimentFormula)
		s := MustCompileSplitter(benchSentenceFormula)
		b.SetBytes(int64(len(joined)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ParallelEval(p, s, joined, benchWorkers)
		}
	})
	b.Run("Streamed", func(b *testing.B) {
		e := NewEngine(EngineConfig{Workers: benchWorkers})
		plan, _, err := e.Plan(ctx, ExtractRequest{Spanner: benchSentimentFormula, Splitter: benchSentenceFormula})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(joined)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.ExtractReader(ctx, plan, strings.NewReader(joined)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
