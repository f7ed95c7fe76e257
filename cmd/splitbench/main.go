// Command splitbench is the paper-reproduction driver: it regenerates
// the library-level experiments — the split-then-distribute speedups of
// the paper's Section 1 (E1–E5) and the complexity-shape measurements
// for the decision procedures (T1–T8). Throughput, the serving path and
// the per-layer ledger are measured by bench/ (see bench/README.md).
//
// Usage:
//
//	splitbench [-exp all|E1|...|E5|T1|...|T8] [-bytes n] [-docs n] [-workers n] [-seed n]
//
// Experiment names are case-insensitive; an unknown name is a hard
// error listing the valid ones.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/alphabet"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/library"
	"repro/internal/parallel"
	"repro/internal/reason"
	"repro/internal/regexformula"
	"repro/internal/vsa"
)

var (
	expFlag = flag.String("exp", "all", "experiment id (E1..E5, T1..T8; case-insensitive) or all")
	bytesN  = flag.Int("bytes", 1<<21, "corpus size in bytes for E1-E3")
	docsN   = flag.Int("docs", 3000, "collection size for E4-E5")
	workers = flag.Int("workers", 5, "worker count (the paper uses 5 cores/nodes)")
	seed    = flag.Uint64("seed", 1, "corpus seed")
)

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
		"E1": func() { ngramSpeedup("E1 Wikipedia 2-grams (paper: 2.10x)", corpus.Wikipedia(*seed, *bytesN), 2) },
		"E2": func() { ngramSpeedup("E2 Wikipedia 3-grams (paper: 3.11x)", corpus.Wikipedia(*seed, *bytesN), 3) },
		"E3": func() { ngramSpeedup("E3 PubMed 2-grams    (paper: 1.90x)", corpus.PubMed(*seed, *bytesN), 2) },
		"E4": e4Reuters,
		"E5": e5Amazon,
		"T1": t1Containment,
		"T2": t2WeakDeterminism,
		"T3": t3Disjointness,
		"T4": t4Cover,
		"T5": t5SplitCorrect,
		"T6": t6CanonicalSize,
		"T7": t7Splittability,
		"T8": t8Reasoning,
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"}
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
	m, err := measure(title, composed, ngram.Automaton(), doc, segs, *workers)
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
	m, err := measureCollection("random-order", p, p, docs, library.FastSentenceSplit, *workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "random-order: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("random order : whole-docs=%v  split-tasks=%v  speedup=%.2fx  tuples=%d\n",
		m.Sequential.Round(time.Millisecond), m.Split.Round(time.Millisecond), m.Speedup, m.Tuples)
	sorted := append([]string(nil), docs...)
	sort.Slice(sorted, func(i, j int) bool { return len(sorted[i]) < len(sorted[j]) })
	m, err = measureCollection("long-last", p, p, sorted, library.FastSentenceSplit, *workers)
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
