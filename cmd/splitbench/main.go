// Command splitbench regenerates the library-level experiments (the
// serving path and its per-layer ledger are bench/README.md's): the
// split-then-distribute speedups of the paper's Section 1 (E1–E5), the
// complexity-shape measurements for the decision procedures (T1–T8),
// the evaluation-core throughput snapshot (EVAL) that tracks the hot
// path across PRs, the split-evaluation scheduling snapshot (SPLIT)
// that tracks the work-stealing executor against the sequential-Eval
// roofline, and the streamed-ingest snapshot (READER) that tracks the
// compiled incremental segmenter and the engine's reader paths.
//
// A fourth snapshot, PREFILTER, measures the literal-prefilter fast
// paths (factor admission gate + trigger-byte skip loops) against
// prefilter-disabled copies of the same automata on the three standard
// corpora.
//
// A fifth snapshot, MULTI, measures multi-query shared evaluation: one
// fused document pass (vsa.Multi) answering N registered queries
// against N sequential single-query passes over the same corpus, at
// N = 1, 10, 100, plus the per-query admission bitmap on a corpus where
// no query's mandatory factor occurs. Every fused datapoint is verified
// byte-identical per query to its sequential twin before timing.
//
// Usage:
//
//	splitbench [-exp all|EVAL|SPLIT|READER|PREFILTER|MULTI|E1|...|T8] [-bytes n] [-docs n] [-workers n] [-seed n] [-json file]
//
// Experiment names are case-insensitive; an unknown name is a hard
// error listing the valid ones. With -json, the EVAL, SPLIT, READER and
// PREFILTER experiments additionally write their measurements (MB/s on
// the standard corpora) as a machine-readable snapshot, e.g.
// BENCH_PR3.json (EVAL), BENCH_PR5.json (SPLIT), BENCH_PR7.json
// (READER) or BENCH_PR9.json (PREFILTER) — CI runs short versions of
// each to keep the benchmark path compiling and to record the
// performance trajectory. SPLIT verifies every split datapoint
// byte-identical to sequential evaluation before timing it; READER
// verifies the chunked resumable scan span-identical to the reference
// splitter; PREFILTER verifies every filtered datapoint byte-identical
// to its unfiltered twin.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/library"
	"repro/internal/parallel"
	"repro/internal/reason"
	"repro/internal/regexformula"
	"repro/internal/span"
	"repro/internal/vsa"
)

var (
	expFlag  = flag.String("exp", "all", "experiment id (EVAL, SPLIT, READER, PREFILTER, MULTI, E1..E5, T1..T8; case-insensitive) or all")
	bytesN   = flag.Int("bytes", 1<<21, "corpus size in bytes for E1-E3 and EVAL")
	docsN    = flag.Int("docs", 3000, "collection size for E4-E5")
	workers  = flag.Int("workers", 5, "worker count (the paper uses 5 cores/nodes)")
	seed     = flag.Uint64("seed", 1, "corpus seed")
	jsonPath = flag.String("json", "", "write the EVAL/SPLIT throughput snapshot to this file")
	obsFlag  = flag.Bool("obs", false, "include the engine's observability snapshot (stage time shares, executor and localizer statistics) alongside the timings")
)

// lastEngineStats is the observability snapshot of the engine the most
// recent EVAL/SPLIT run streamed through, captured when -obs is set.
var lastEngineStats *engine.Stats

func main() {
	flag.Parse()
	exps, order := experiments()
	if strings.EqualFold(*expFlag, "all") {
		for _, id := range order {
			exps[id]()
		}
		return
	}
	run, err := resolveExperiment(*expFlag, exps, order)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	run()
}

// experiments returns the experiment registry and its canonical run
// order ("all" runs them in this order).
func experiments() (map[string]func(), []string) {
	exps := map[string]func(){
		"EVAL":      evalThroughput,
		"SPLIT":     splitThroughput,
		"READER":    readerThroughput,
		"PREFILTER": prefilterThroughput,
		"MULTI":     multiThroughput,
		"E1":        func() { ngramSpeedup("E1 Wikipedia 2-grams (paper: 2.10x)", corpus.Wikipedia(*seed, *bytesN), 2) },
		"E2":        func() { ngramSpeedup("E2 Wikipedia 3-grams (paper: 3.11x)", corpus.Wikipedia(*seed, *bytesN), 3) },
		"E3":        func() { ngramSpeedup("E3 PubMed 2-grams    (paper: 1.90x)", corpus.PubMed(*seed, *bytesN), 2) },
		"E4":        e4Reuters,
		"E5":        e5Amazon,
		"T1":        t1Containment,
		"T2":        t2WeakDeterminism,
		"T3":        t3Disjointness,
		"T4":        t4Cover,
		"T5":        t5SplitCorrect,
		"T6":        t6CanonicalSize,
		"T7":        t7Splittability,
		"T8":        t8Reasoning,
	}
	order := []string{"EVAL", "SPLIT", "READER", "PREFILTER", "MULTI", "E1", "E2", "E3", "E4", "E5", "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"}
	return exps, order
}

// resolveExperiment maps a -exp value to its experiment,
// case-insensitively. An unknown name is a hard error that lists every
// valid experiment, so a typo'd CI invocation fails loudly instead of
// silently benchmarking the wrong thing.
func resolveExperiment(name string, exps map[string]func(), order []string) (func(), error) {
	if run, ok := exps[strings.ToUpper(name)]; ok {
		return run, nil
	}
	return nil, fmt.Errorf("unknown experiment %q: valid experiments are all, %s",
		name, strings.Join(order, ", "))
}

// perfResult is one throughput measurement of the EVAL snapshot.
type perfResult struct {
	Op     string  `json:"op"`
	Corpus string  `json:"corpus"`
	Bytes  int     `json:"bytes"`
	MBPerS float64 `json:"mb_per_s"`
	Tuples int     `json:"tuples"`
}

// perfSnapshot is the -json output: enough context to compare runs
// across PRs without re-reading the benchmark code.
type perfSnapshot struct {
	Experiment string       `json:"experiment"`
	GoVersion  string       `json:"go_version"`
	NumCPU     int          `json:"num_cpu"`
	Workers    int          `json:"workers"`
	Results    []perfResult `json:"results"`
	// Obs is the engine's observability snapshot over the run's streamed
	// datapoints — stage time shares, executor scheduling statistics,
	// localizer effectiveness. Present only with -obs.
	Obs *engine.Stats `json:"obs,omitempty"`
}

// evalThroughput measures the evaluation core on the standard corpora:
// the dense-match review corpus (every few hundred bytes a match), the
// sparse corpus (a match every 64 KB) and a non-matching corpus — the
// three regimes of the bidirectional match-window localizer.
func evalThroughput() {
	header("EVAL evaluation-core throughput (MB/s)")
	p := library.NegativeSentiment()
	p.Prepare()
	dense := strings.Join(corpus.Reviews(*seed, *bytesN/256), "\n")
	// Keep the sparse corpus genuinely sparse-but-matching at any -bytes:
	// a gap larger than a quarter of the corpus would leave it match-free.
	matchEvery := 64 << 10
	if matchEvery > *bytesN/4 {
		matchEvery = *bytesN/4 + 1
	}
	sparse := corpus.SparseSentiment(*seed, *bytesN, matchEvery)
	nonMatching := corpus.Wikipedia(*seed, *bytesN)
	segs := parallel.SegmentsOf(dense, library.FastSentenceSplit(dense))

	var results []perfResult
	results = append(results,
		measure("EvalBool", "dense", dense, func() int {
			if p.EvalBool(dense) {
				return 1
			}
			return 0
		}),
		measure("Eval", "dense", dense, func() int { return p.Eval(dense).Len() }),
		measure("Eval", "sparse", sparse, func() int { return p.Eval(sparse).Len() }),
		measure("Eval", "nonmatching", nonMatching, func() int { return p.Eval(nonMatching).Len() }),
		measure("SplitEval", "dense", dense, func() int { return parallel.SplitEval(p, segs, *workers).Len() }),
	)
	results = append(results, engineStreamingResults(dense, measure)...)
	writeSnapshot("EVAL", results)
}

// measure times one throughput datapoint: warm up once, then time
// enough repetitions to smooth noise.
func measure(op, corpusName, doc string, f func() int) perfResult {
	tuples := f()
	const reps = 5
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	dur := time.Since(t0)
	mbs := float64(len(doc)) * reps / dur.Seconds() / 1e6
	fmt.Printf("%-14s %-12s %9d bytes  %8.1f MB/s  %d tuples\n", op, corpusName, len(doc), mbs, tuples)
	return perfResult{Op: op, Corpus: corpusName, Bytes: len(doc), MBPerS: mbs, Tuples: tuples}
}

// writeSnapshot emits the machine-readable -json snapshot, if requested.
func writeSnapshot(experiment string, results []perfResult) {
	if *jsonPath == "" {
		return
	}
	snap := perfSnapshot{
		Experiment: experiment,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Workers:    *workers,
		Results:    results,
	}
	if *obsFlag {
		snap.Obs = lastEngineStats
	}
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", experiment, err)
		os.Exit(1)
	}
	out = append(out, '\n')
	if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", experiment, err)
		os.Exit(1)
	}
	fmt.Printf("snapshot written to %s\n", *jsonPath)
}

// splitThroughput is the PR 5 scheduling-overhead snapshot: sequential
// Eval as the roofline, SplitEval on the work-stealing executor across
// worker counts, and the engine's streamed/buffered reader paths, all
// on the dense corpus. Every split result is verified byte-identical to
// the sequential reference before timing — a split-evaluation datapoint
// that disagrees with Eval would be measuring a correctness bug.
func splitThroughput() {
	header("SPLIT work-stealing split evaluation (MB/s)")
	p := library.NegativeSentiment()
	p.Prepare()
	dense := strings.Join(corpus.Reviews(*seed, *bytesN/256), "\n")
	segs := parallel.SegmentsOf(dense, library.FastSentenceSplit(dense))
	fmt.Printf("segments=%d  workers=%d\n", len(segs), *workers)

	seq := p.Eval(dense)
	workerCounts := []int{1, 2, *workers}
	if *workers <= 2 {
		workerCounts = []int{1, 2}
	}
	for _, w := range workerCounts {
		if got := parallel.SplitEval(p, segs, w); !got.Equal(seq) {
			fmt.Fprintf(os.Stderr, "SPLIT: split evaluation at %d workers disagrees with sequential Eval\n", w)
			os.Exit(1)
		}
	}

	results := []perfResult{
		measure("Eval", "dense", dense, func() int { return p.Eval(dense).Len() }),
	}
	for _, w := range workerCounts {
		results = append(results, measure(fmt.Sprintf("SplitEval/w%d", w), "dense", dense,
			func() int { return parallel.SplitEval(p, segs, w).Len() }))
	}
	results = append(results, engineStreamingResults(dense, measure)...)
	writeSnapshot("SPLIT", results)
}

// readerThroughput is the PR 7 streamed-ingest snapshot: sequential
// Eval as the roofline, the splitter alone in its three forms —
// SplitReference (full evaluation + sort), Split (the compiled one-pass
// scanner) and ScanFeed (the resumable scanner fed engine-sized chunks,
// i.e. segmentation work as ExtractReader's producer sees it) — and the
// engine's streamed/buffered reader paths. ScanFeed is verified
// span-identical to SplitReference before timing.
func readerThroughput() {
	header("READER streamed-ingest throughput (MB/s)")
	p := library.NegativeSentiment()
	p.Prepare()
	dense := strings.Join(corpus.Reviews(*seed, *bytesN/256), "\n")
	s := library.Sentences()
	chunkSize := 64 << 10

	scanChunked := func() []span.Span {
		r, ok := s.NewScanRun()
		if !ok {
			fmt.Fprintln(os.Stderr, "READER: sentence splitter has no compiled scanner")
			os.Exit(1)
		}
		var spans []span.Span
		for lo := 0; lo < len(dense); lo += chunkSize {
			hi := lo + chunkSize
			if hi > len(dense) {
				hi = len(dense)
			}
			var chunkOK bool
			spans, chunkOK = r.Feed([]byte(dense[lo:hi]), spans)
			if !chunkOK {
				fmt.Fprintln(os.Stderr, "READER: scanner bailed on the dense corpus")
				os.Exit(1)
			}
		}
		spans, ok = r.Flush(spans)
		if !ok {
			fmt.Fprintln(os.Stderr, "READER: scanner bailed at flush")
			os.Exit(1)
		}
		return spans
	}
	want := s.SplitReference(dense)
	got := scanChunked()
	if len(got) != len(want) {
		fmt.Fprintf(os.Stderr, "READER: chunked scan found %d spans, reference %d\n", len(got), len(want))
		os.Exit(1)
	}
	for i := range got {
		if got[i] != want[i] {
			fmt.Fprintf(os.Stderr, "READER: chunked scan span %d = %v, reference %v\n", i, got[i], want[i])
			os.Exit(1)
		}
	}

	results := []perfResult{
		measure("Eval", "dense", dense, func() int { return p.Eval(dense).Len() }),
		measure("SplitReference", "dense", dense, func() int { return len(s.SplitReference(dense)) }),
		measure("Split", "dense", dense, func() int { return len(s.Split(dense)) }),
		measure("ScanFeed", "dense", dense, func() int { return len(scanChunked()) }),
	}
	results = append(results, engineStreamingResults(dense, measure)...)
	writeSnapshot("READER", results)
}

// prefilterThroughput is the PR 9 literal-prefilter snapshot: the
// NegativeSentiment extractor (mandatory factor "bad ") and the
// sentence splitter (no factor, but trigger-skippable scan states) on
// the three standard corpora, each measured with the prefilter on and
// off ("/off" datapoints). The sparse and non-matching corpora are
// where the factor gate and the trigger-byte skip loop should approach
// memchr speed; the dense corpus is the regression guard — the streak
// heuristic must keep the skip machinery out of the way there. Every
// filtered datapoint is verified byte-identical to its unfiltered twin
// before anything is timed.
func prefilterThroughput() {
	header("PREFILTER literal-prefilter throughput (MB/s)")
	on := library.NegativeSentiment()
	on.Prepare()
	off := library.NegativeSentiment()
	off.DisablePrefilter()
	off.Prepare()
	if pf := on.Prefilter(); pf.Reason != vsa.PrefilterOK {
		fmt.Fprintf(os.Stderr, "PREFILTER: NegativeSentiment factor gate not armed: %+v\n", pf)
		os.Exit(1)
	}

	dense := strings.Join(corpus.Reviews(*seed, *bytesN/256), "\n")
	matchEvery := 64 << 10
	if matchEvery > *bytesN/4 {
		matchEvery = *bytesN/4 + 1
	}
	sparse := corpus.SparseSentiment(*seed, *bytesN, matchEvery)
	nonMatching := corpus.Wikipedia(*seed, *bytesN)
	corpora := []struct{ name, doc string }{
		{"dense", dense}, {"sparse", sparse}, {"nonmatching", nonMatching},
	}
	for _, c := range corpora {
		if !on.Eval(c.doc).Equal(off.Eval(c.doc)) {
			fmt.Fprintf(os.Stderr, "PREFILTER: filtered Eval disagrees with unfiltered on %s corpus\n", c.name)
			os.Exit(1)
		}
		if on.EvalBool(c.doc) != off.EvalBool(c.doc) {
			fmt.Fprintf(os.Stderr, "PREFILTER: filtered EvalBool disagrees with unfiltered on %s corpus\n", c.name)
			os.Exit(1)
		}
	}

	sentSrc := "(x{[^.!?\\n]*})([.!?\\n][^.!?\\n]*)*|" +
		"[^.!?\\n]*([.!?\\n][^.!?\\n]*)*[.!?\\n](x{[^.!?\\n]*})([.!?\\n][^.!?\\n]*)*"
	sentOn := core.MustSplitter(regexformula.MustCompile(sentSrc))
	sentOffAuto := regexformula.MustCompile(sentSrc)
	sentOffAuto.DisablePrefilter()
	sentOff := core.MustSplitter(sentOffAuto)
	for _, c := range corpora {
		got, want := sentOn.Split(c.doc), sentOff.Split(c.doc)
		if len(got) != len(want) {
			fmt.Fprintf(os.Stderr, "PREFILTER: filtered Split found %d spans, unfiltered %d on %s corpus\n", len(got), len(want), c.name)
			os.Exit(1)
		}
		for i := range got {
			if got[i] != want[i] {
				fmt.Fprintf(os.Stderr, "PREFILTER: Split span %d differs on %s corpus: %v vs %v\n", i, c.name, got[i], want[i])
				os.Exit(1)
			}
		}
	}

	var results []perfResult
	for _, c := range corpora {
		doc := c.doc
		results = append(results,
			measure("EvalBool", c.name, doc, func() int {
				if on.EvalBool(doc) {
					return 1
				}
				return 0
			}),
			measure("EvalBool/off", c.name, doc, func() int {
				if off.EvalBool(doc) {
					return 1
				}
				return 0
			}),
			measure("Eval", c.name, doc, func() int { return on.Eval(doc).Len() }),
			measure("Eval/off", c.name, doc, func() int { return off.Eval(doc).Len() }),
		)
	}
	results = append(results,
		measure("Split", "sparse", sparse, func() int { return len(sentOn.Split(sparse)) }),
		measure("Split/off", "sparse", sparse, func() int { return len(sentOff.Split(sparse)) }),
		measure("Split", "dense", dense, func() int { return len(sentOn.Split(dense)) }),
		measure("Split/off", "dense", dense, func() int { return len(sentOff.Split(dense)) }),
	)
	writeSnapshot("PREFILTER", results)
}

// multiMarker is the literal token query i of the MULTI experiment
// extracts: "q" plus two lowercase letters, distinct per query, never a
// substring of the filler prose or of another marker.
func multiMarker(i int) string {
	return string([]byte{'q', byte('a' + i/10), byte('a' + i%10)})
}

// multiFormula is the i-th registered query: extract every occurrence
// of its marker token as the span of variable x.
func multiFormula(i int) string {
	m := multiMarker(i)
	return fmt.Sprintf(`.*(x{%s}).*|(x{%s}).*`, m, m)
}

// multiCorpus interleaves filler prose with the first `markers` marker
// tokens in rotation, so every registered query finds matches and the
// corpus is identical across query-set sizes. The filler deliberately
// contains every lowercase letter, keeping per-member trigger-byte
// skipping ineffective: both sides of the comparison are scan-bound,
// which is the regime the fused pass is for.
func multiCorpus(n, markers int) string {
	const filler = "the quick brown fox jumps over lazy dogs while zebras vex " +
		"judges and make a big sphinx of quartz wait in the cold hall. "
	var b strings.Builder
	b.Grow(n + len(filler) + 8)
	for i := 0; b.Len() < n; i++ {
		b.WriteString(filler)
		b.WriteString(multiMarker(i % markers))
		b.WriteByte(' ')
	}
	return b.String()[:n]
}

// multiThroughput is the PR 10 snapshot: one fused document pass
// (vsa.Multi) answering N registered queries versus N sequential
// single-query passes over the same corpus, at N = 1, 10, 100. Every
// fused datapoint is verified byte-identical per query to its
// sequential twin — through both Multi.Eval and the work-stealing
// parallel.MultiEval — before it is timed. Both sides report MB/s over
// one document traversal serving the whole query set, so the ratio of
// the fused row to the sequential row is the aggregate speedup; the
// aggregate row restates the fused rate times N (query-bytes answered
// per second). The final rows measure the per-query admission bitmap: a
// corpus where no query's mandatory factor occurs is dismissed by the
// prefilter gate without a full fused pass.
func multiThroughput() {
	header("MULTI fused multi-query evaluation (MB/s)")
	const maxN = 100
	doc := multiCorpus(*bytesN, maxN)
	whole := []parallel.Segment{{Span: span.Span{Start: 1, End: len(doc) + 1}, Text: doc}}

	var results []perfResult
	for _, n := range []int{1, 10, 100} {
		members := make([]*vsa.Automaton, n)
		for i := range members {
			members[i] = regexformula.MustCompile(multiFormula(i))
			members[i].Prepare()
		}
		m := vsa.NewMulti(members...)
		m.Prepare()

		// Verify before timing: each query's fused result must be
		// byte-identical to its own sequential pass, on both the direct
		// and the executor path.
		seq := make([]*span.Relation, n)
		for i, mem := range members {
			seq[i] = mem.Eval(doc)
		}
		for _, fused := range [][]*span.Relation{m.Eval(doc), parallel.MultiEval(m, whole, *workers)} {
			for q := range seq {
				if !fused[q].Equal(seq[q]) {
					fmt.Fprintf(os.Stderr, "MULTI: fused result for query %d of %d differs from its sequential pass\n", q, n)
					os.Exit(1)
				}
			}
		}

		name := fmt.Sprintf("queries-%d", n)
		seqRow := measure("Eval/seq", name, doc, func() int {
			tuples := 0
			for _, mem := range members {
				tuples += mem.Eval(doc).Len()
			}
			return tuples
		})
		fusedRow := measure("Eval/fused", name, doc, func() int {
			tuples := 0
			for _, rel := range m.Eval(doc) {
				tuples += rel.Len()
			}
			return tuples
		})
		results = append(results, seqRow, fusedRow,
			perfResult{Op: "aggregate/fused", Corpus: name, Bytes: len(doc) * n,
				MBPerS: fusedRow.MBPerS * float64(n), Tuples: fusedRow.Tuples})
		fmt.Printf("%-14s %-12s aggregate %8.1f MB/s  speedup %.2fx over %d sequential passes\n",
			"aggregate", name, fusedRow.MBPerS*float64(n), fusedRow.MBPerS/seqRow.MBPerS, n)
	}

	// Admission bitmap: none of the markers occur in the Wikipedia
	// corpus, so the factor gate dismisses every query up front.
	absent := corpus.Wikipedia(*seed, *bytesN)
	members := make([]*vsa.Automaton, 10)
	for i := range members {
		members[i] = regexformula.MustCompile(multiFormula(i))
		members[i].Prepare()
	}
	m := vsa.NewMulti(members...)
	m.Prepare()
	for i, rel := range m.Eval(absent) {
		if !rel.Equal(members[i].Eval(absent)) {
			fmt.Fprintf(os.Stderr, "MULTI: fused result for query %d differs on the non-matching corpus\n", i)
			os.Exit(1)
		}
	}
	results = append(results, measure("Eval/fused", "nonmatching", absent, func() int {
		tuples := 0
		for _, rel := range m.Eval(absent) {
			tuples += rel.Len()
		}
		return tuples
	}))

	writeSnapshot("MULTI", results)
}

// engineStreamingResults measures the engine's split evaluation of a
// streamed document in both ingest modes on the same plan: "streamed"
// rides the locality verdict (the sentence splitter is proven local,
// so segmentation overlaps evaluation), "buffered" reads the stream
// whole before evaluating — the PR 4 streamed-vs-buffered SplitEval
// datapoint of the benchmark snapshot.
func engineStreamingResults(dense string, measure func(op, corpusName, doc string, f func() int) perfResult) []perfResult {
	negFormula := `(.*[ .!?\n])?bad (y{[a-z]+})(([^a-z].*)?|)`
	sentFormula := "(x{[^.!?\\n]*})([.!?\\n][^.!?\\n]*)*|" +
		"[^.!?\\n]*([.!?\\n][^.!?\\n]*)*[.!?\\n](x{[^.!?\\n]*})([.!?\\n][^.!?\\n]*)*"
	ctx := context.Background()
	eng := engine.New(engine.Config{Workers: *workers})
	plan, _, err := eng.Plan(ctx, engine.Request{Spanner: negFormula, Splitter: sentFormula})
	if err != nil {
		fmt.Fprintf(os.Stderr, "EVAL: engine plan: %v\n", err)
		os.Exit(1)
	}
	if !eng.WillStream(plan) {
		fmt.Fprintf(os.Stderr, "EVAL: sentence splitter no longer proven local (verdicts %+v)\n", plan.Verdicts)
		os.Exit(1)
	}
	// Same plan, locality verdict overridden to "no": ExtractReader takes
	// the sound buffer-all path (the struct copy leaves the cached plan
	// untouched).
	buffered := *plan
	buffered.Verdicts.Local = core.VerdictNo
	extract := func(p *engine.Plan) int {
		rel, err := eng.ExtractReader(ctx, p, strings.NewReader(dense))
		if err != nil {
			fmt.Fprintf(os.Stderr, "EVAL: %v\n", err)
			os.Exit(1)
		}
		return rel.Len()
	}
	out := []perfResult{
		measure("SplitEvalStream", "streamed", dense, func() int { return extract(plan) }),
		measure("SplitEvalStream", "buffered", dense, func() int { return extract(&buffered) }),
	}
	if *obsFlag {
		st := eng.Stats()
		lastEngineStats = &st
		for _, stage := range []string{"plan", "decide", "segment", "eval", "merge", "localize", "sim"} {
			s := st.Stages[stage]
			fmt.Printf("obs %-9s share=%5.3f total=%8.1fms count=%d\n", stage, s.Share, s.TotalMS, s.Count)
		}
		fmt.Printf("obs executor  steals=%d chunks=%d busy=%.3f\n",
			st.Executor.Steals, st.Executor.Chunks, st.Executor.BusyShare)
	}
	return out
}

func header(title string) {
	fmt.Printf("\n== %s ==\n", title)
}

// ngramSpeedup reproduces the Section 1 N-gram experiments: sequential
// evaluation of the composed spanner (N-grams of sentences) on the whole
// corpus versus per-sentence parallel evaluation on w workers.
func ngramSpeedup(title, doc string, n int) {
	header(title)
	sentences := library.Sentences()
	ngram := library.NGrams(n)
	composed := core.Compose(ngram.Automaton(), sentences)
	segs := parallel.SegmentsOf(doc, library.FastSentenceSplit(doc))
	m, err := parallel.Measure(title, composed, ngram.Automaton(), doc, segs, *workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", title, err)
		os.Exit(1)
	}
	fmt.Printf("corpus=%d bytes  sentences=%d  workers=%d\n", len(doc), len(segs), *workers)
	fmt.Printf("sequential=%v  split=%v  speedup=%.2fx  ngrams=%d\n",
		m.Sequential.Round(time.Millisecond), m.Split.Round(time.Millisecond), m.Speedup, m.Tuples)
}

// e4Reuters mirrors the Spark experiment on ~9,000 Reuters articles: the
// same worker pool schedules either whole articles or their sentences.
func e4Reuters() {
	header("E4 Reuters finance events over a pre-split collection (paper: 1.99x)")
	docs := corpus.Reuters(*seed, *docsN)
	p := library.FinanceEvents()
	collectionExperiment(p, docs, "articles")
}

// collectionExperiment runs the pre-split-collection comparison in two
// arrival orders. With random arrival a shared-memory worker pool shows
// little difference (its scheduling overhead is negligible either way —
// the Spark-specific amortization the paper observed does not transfer);
// the benefit of sentence-granular tasks appears when long documents
// arrive late and whole-document scheduling straggles on them.
func collectionExperiment(p *vsa.Automaton, docs []string, noun string) {
	fmt.Printf("%s=%d  workers=%d\n", noun, len(docs), *workers)
	m, err := parallel.MeasureCollection("random-order", p, p, docs, library.FastSentenceSplit, *workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "random-order: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("random order : whole-docs=%v  split-tasks=%v  speedup=%.2fx  tuples=%d\n",
		m.Sequential.Round(time.Millisecond), m.Split.Round(time.Millisecond), m.Speedup, m.Tuples)
	sorted := append([]string(nil), docs...)
	sort.Slice(sorted, func(i, j int) bool { return len(sorted[i]) < len(sorted[j]) })
	m, err = parallel.MeasureCollection("long-last", p, p, sorted, library.FastSentenceSplit, *workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "long-last: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("long-last    : whole-docs=%v  split-tasks=%v  speedup=%.2fx  tuples=%d\n",
		m.Sequential.Round(time.Millisecond), m.Split.Round(time.Millisecond), m.Speedup, m.Tuples)
}

func e5Amazon() {
	header("E5 Amazon negative-sentiment targets (paper: 4.16x)")
	docs := corpus.Reviews(*seed, *docsN*10)
	p := library.NegativeSentiment()
	collectionExperiment(p, docs, "reviews")
}

func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// t1Containment contrasts Theorem 4.1 (general containment, exponential
// via subset construction) with Theorem 4.3 (deterministic right side,
// product-based) on growing token extractors.
func t1Containment() {
	header("T1 containment: general (Thm 4.1) vs deterministic (Thm 4.3)")
	fmt.Println("k   |A| states  general     deterministic  result")
	for k := 2; k <= 10; k += 2 {
		pat := strings.Repeat("a", k)
		a := regexformula.MustCompile(".*y{" + pat + "}.*")
		b := regexformula.MustCompile(".*y{" + pat + "|" + pat + "b}.*")
		db, err := b.Determinize(0)
		if err != nil {
			panic(err)
		}
		var okGen, okDet bool
		genDur := timed(func() { okGen, _ = vsa.Contained(a, b, 0) })
		detDur := timed(func() { okDet, _ = vsa.Contained(a, db, 0) })
		if okGen != okDet {
			panic("T1: procedures disagree")
		}
		fmt.Printf("%-3d %-10d  %-10v  %-13v  %v\n", k, a.NumStates(), genDur.Round(time.Microsecond), detDur.Round(time.Microsecond), okGen)
	}
}

// t2WeakDeterminism builds the Theorem 4.2 reduction from DFA union
// universality: A selects the whole document in all n variables; A' does
// so per branch i when the i-th DFA accepts. Containment holds iff the
// union of the DFAs is universal, and the running time of the general
// procedure grows quickly with n — weak determinism does not help.
func t2WeakDeterminism() {
	header("T2 Theorem 4.2: containment hard despite weak determinism")
	fmt.Println("n   universal  contained  time")
	for n := 1; n <= 3; n++ {
		for _, universal := range []bool{true, false} {
			a, aPrime := theorem42Instance(n, universal)
			var ok bool
			dur := timed(func() {
				var err error
				ok, err = vsa.Contained(a.Compile(), aPrime.Compile(), 0)
				if err != nil {
					panic(err)
				}
			})
			if ok != universal {
				panic("T2: containment must coincide with union universality")
			}
			fmt.Printf("%-3d %-9v  %-9v  %v\n", n, universal, ok, dur.Round(time.Microsecond))
		}
	}
}

// theorem42Instance builds raw VSet-automata per the proof of Theorem 4.2
// over Σ = {a, b}, with DFAs A_i = "length ≡ i (mod n)"; their union is
// universal, and dropping residue 0 (universal=false keeps lengths ≢ 0)
// breaks universality.
func theorem42Instance(n int, universal bool) (*vsa.Raw, *vsa.Raw) {
	vars := make([]string, n)
	for i := range vars {
		vars[i] = fmt.Sprintf("x%d", i)
	}
	sigma := []byte{'a', 'b'}
	// A: open all variables in order, loop on Σ, close all.
	a := vsa.NewRaw(vars...)
	cur := a.Start
	for v := 0; v < n; v++ {
		next := a.AddState(false)
		a.AddOpEdge(cur, vsa.Open(v), next)
		cur = next
	}
	loop := cur
	for _, c := range sigma {
		a.AddSymbolEdge(loop, alphabet.Of(c), loop)
	}
	for v := 0; v < n; v++ {
		next := a.AddState(v == n-1)
		a.AddOpEdge(cur, vsa.Close(v), next)
		cur = next
	}
	// A': branch i opens x_i first, then the others in order, then runs
	// the DFA "length ≡ i mod n" (or skips residue 0 in the non-universal
	// case), closing everything at the end.
	ap := vsa.NewRaw(vars...)
	for i := 0; i < n; i++ {
		if !universal && i == 0 {
			continue
		}
		cur := ap.AddState(false)
		ap.AddOpEdge(ap.Start, vsa.Open(i), cur)
		for v := 0; v < n; v++ {
			if v == i {
				continue
			}
			next := ap.AddState(false)
			ap.AddOpEdge(cur, vsa.Open(v), next)
			cur = next
		}
		// Mod-n length counter.
		states := make([]int, n)
		states[0] = cur
		for j := 1; j < n; j++ {
			states[j] = ap.AddState(false)
		}
		for j := 0; j < n; j++ {
			for _, c := range sigma {
				ap.AddSymbolEdge(states[j], alphabet.Of(c), states[(j+1)%n])
			}
		}
		// Accept at residue i: close all variables.
		cur = states[i%n]
		for v := 0; v < n; v++ {
			next := ap.AddState(v == n-1)
			ap.AddOpEdge(cur, vsa.Close(v), next)
			cur = next
		}
	}
	return a, ap
}

func t3Disjointness() {
	header("T3 disjointness check (Prop 5.5) scaling")
	fmt.Println("splitter              states  time       disjoint")
	cases := []struct {
		name string
		s    *core.Splitter
	}{
		{"sentences", library.Sentences()},
		{"paragraphs", library.Paragraphs()},
		{"tokens", library.Tokens()},
		{"1-grams", library.NGrams(1)},
		{"2-grams", library.NGrams(2)},
		{"3-grams", library.NGrams(3)},
		{"4-grams", library.NGrams(4)},
		{"http-requests", library.HTTPRequests()},
	}
	for _, c := range cases {
		var ok bool
		dur := timed(func() { ok = c.s.IsDisjoint() })
		fmt.Printf("%-21s %-7d %-10v %v\n", c.name, c.s.Automaton().NumStates(), dur.Round(time.Microsecond), ok)
	}
}

func t4Cover() {
	header("T4 cover condition: general (Lemma 5.4) vs polynomial (Lemma 5.6)")
	fmt.Println("k   general     polynomial  holds")
	for k := 1; k <= 6; k++ {
		pat := strings.Repeat("a", k)
		p, err := regexformula.MustCompile(".*y{" + pat + "}.*").Determinize(0)
		if err != nil {
			panic(err)
		}
		// A disjoint block splitter: maximal b-free blocks. Every run of
		// a's lies inside one, so the cover condition holds.
		sAuto, err := regexformula.MustCompile("(x{[^b]*})(b[^b]*)*|[^b]*(b[^b]*)*b(x{[^b]*})(b[^b]*)*").Determinize(0)
		if err != nil {
			panic(err)
		}
		s := core.MustSplitter(sAuto)
		var okGen, okPoly bool
		genDur := timed(func() { okGen, _ = core.CoverCondition(p, s, 0) })
		polyDur := timed(func() { okPoly, _ = core.CoverConditionPoly(p, s) })
		if okGen != okPoly {
			panic("T4: procedures disagree")
		}
		if !okGen {
			panic("T4: cover condition must hold for this family")
		}
		fmt.Printf("%-3d %-10v  %-10v  %v\n", k, genDur.Round(time.Microsecond), polyDur.Round(time.Microsecond), okGen)
	}
}

func t5SplitCorrect() {
	header("T5 split-correctness: general (Thm 5.1) vs polynomial (Thm 5.7)")
	fmt.Println("k   general     polynomial  correct")
	for k := 1; k <= 6; k++ {
		pat := strings.Repeat("a", k)
		// P extracts every k-long run of a's; it is self-splittable by
		// maximal b-free blocks, so P_S = P is split-correct.
		p, err := regexformula.MustCompile(".*y{" + pat + "}.*").Determinize(0)
		if err != nil {
			panic(err)
		}
		ps := p
		sAuto, err := regexformula.MustCompile("(x{[^b]*})(b[^b]*)*|[^b]*(b[^b]*)*b(x{[^b]*})(b[^b]*)*").Determinize(0)
		if err != nil {
			panic(err)
		}
		s := core.MustSplitter(sAuto)
		var okGen, okPoly bool
		genDur := timed(func() { okGen, _ = core.SplitCorrect(p, ps, s, 0) })
		polyDur := timed(func() { okPoly, _ = core.SplitCorrectPoly(p, ps, s) })
		if okGen != okPoly {
			panic("T5: procedures disagree")
		}
		if !okGen {
			panic("T5: this family must be split-correct")
		}
		fmt.Printf("%-3d %-10v  %-10v  %v\n", k, genDur.Round(time.Microsecond), polyDur.Round(time.Microsecond), okGen)
	}
}

func t6CanonicalSize() {
	header("T6 canonical split-spanner size (Prop 5.9: polynomial in |P|·|S|)")
	fmt.Println("k   |P|  |S|  |P_S^can|  |P|*|S|")
	for k := 1; k <= 6; k++ {
		pat := strings.Repeat("a", k)
		p := regexformula.MustCompile(".*y{" + pat + "}.*")
		s := core.MustSplitter(regexformula.MustCompile("(x{[^b]*})(b[^b]*)*|[^b]*(b[^b]*)*b(x{[^b]*})(b[^b]*)*"))
		can := core.Canonical(p, s)
		fmt.Printf("%-3d %-4d %-4d %-9d %d\n", k, p.NumStates(), s.Automaton().NumStates(),
			can.NumStates(), p.NumStates()*s.Automaton().NumStates())
	}
}

func t7Splittability() {
	header("T7 splittability (Thm 5.15) on splittable and unsplittable families")
	fmt.Println("k   splittable-instance  unsplittable-instance")
	for k := 1; k <= 4; k++ {
		pat := strings.Repeat("a", k)
		s := core.MustSplitter(regexformula.MustCompile("(x{[^b]*})(b[^b]*)*|[^b]*(b[^b]*)*b(x{[^b]*})(b[^b]*)*"))
		good := regexformula.MustCompile(".*y{" + pat + "}.*")
		bad := regexformula.MustCompile(".*y{" + pat + "b" + pat + "}.*")
		var okGood, okBad bool
		goodDur := timed(func() { okGood, _, _ = core.Splittable(good, s, 0) })
		badDur := timed(func() { okBad, _, _ = core.Splittable(bad, s, 0) })
		if !okGood || okBad {
			panic("T7: unexpected answers")
		}
		fmt.Printf("%-3d %-20v %v\n", k, goodDur.Round(time.Microsecond), badDur.Round(time.Microsecond))
	}
}

func t8Reasoning() {
	header("T8 Section 6 reasoning: K-grams inside N-grams; sentence/paragraph subsumption")
	// The paper notes a K-gram extractor can be applied to the chunks of
	// an N-gram splitter whenever K ≤ N. As strict self-splittability this
	// holds only for K = N: documents with fewer than N words have no
	// N-gram chunks at all. The intended content is completeness on
	// documents with at least N words: S_K restricted to such documents is
	// contained in S_K ∘ S_N iff K ≤ N.
	fmt.Println("K  N  equal(S_K=S_K∘S_N)  complete(K-grams from N-chunks)  time")
	for _, kn := range [][2]int{{1, 1}, {1, 2}, {2, 2}, {2, 3}, {3, 3}, {3, 2}, {2, 1}} {
		k, n := kn[0], kn[1]
		kg := library.NGrams(k).Automaton()
		ns := library.NGrams(n)
		var equal, complete bool
		dur := timed(func() {
			var err error
			equal, err = core.SelfSplittable(kg, ns, 0)
			if err != nil {
				panic(err)
			}
			restricted, err := algebra.Restrict(kg, atLeastWords(n))
			if err != nil {
				panic(err)
			}
			complete, err = vsa.Contained(restricted, core.Compose(kg, ns), 0)
			if err != nil {
				panic(err)
			}
		})
		if equal != (k == n) {
			panic(fmt.Sprintf("T8: equality expected iff K=N (K=%d N=%d)", k, n))
		}
		if complete != (k <= n) {
			panic(fmt.Sprintf("T8: completeness expected iff K≤N (K=%d N=%d)", k, n))
		}
		fmt.Printf("%-2d %-2d %-19v %-31v %v\n", k, n, equal, complete, dur.Round(time.Microsecond))
	}
	sent := library.Sentences()
	para := library.Paragraphs()
	var ok bool
	dur := timed(func() { ok, _ = reason.Subsumes(sent, para, nil, 0) })
	if !ok {
		panic("T8: sentence splitting must factor through paragraphs")
	}
	fmt.Printf("sentences = sentences ∘ paragraphs: %v (%v)\n", ok, dur.Round(time.Microsecond))
}

// atLeastWords returns the Boolean spanner for single-space-separated
// documents with at least n words (no leading or trailing spaces).
func atLeastWords(n int) *vsa.Automaton {
	w := "[^ \\n]+"
	src := w + strings.Repeat(" "+w, n-1) + "( " + w + ")*"
	return regexformula.MustCompile(src)
}
