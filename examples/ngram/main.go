// The N-gram speedup experiment of Section 1 in miniature: extracting
// 2-grams and 3-grams of Wikipedia-like sentences, comparing sequential
// whole-document evaluation of the composed spanner with split-parallel
// evaluation over 5 workers, both through the spanners API.
package main

import (
	"fmt"
	"log"
	"time"

	spanners "repro"
	"repro/internal/corpus"
	"repro/internal/library"
)

func main() {
	doc := corpus.Wikipedia(1, 1<<19) // ~0.5 MB
	sentences := spanners.WrapSplitter(library.Sentences())
	fmt.Printf("corpus: %d bytes, %d sentences\n", len(doc), len(sentences.Split(doc)))

	for _, n := range []int{2, 3} {
		ngram, err := spanners.FromAutomaton(library.NGrams(n).Automaton())
		if err != nil {
			log.Fatal(err)
		}
		composed := spanners.Compose(ngram, sentences)
		t0 := time.Now()
		seq := composed.Eval(doc)
		seqDur := time.Since(t0)
		t1 := time.Now()
		split := spanners.ParallelEval(ngram, sentences, doc, 5)
		splitDur := time.Since(t1)
		if !seq.Equal(split) {
			log.Fatalf("N=%d: split evaluation differs from sequential evaluation", n)
		}
		fmt.Printf("N=%d: sequential=%v split=%v speedup=%.2fx ngrams=%d\n",
			n, seqDur, splitDur, float64(seqDur)/float64(splitDur), seq.Len())
	}
	fmt.Println("(the paper reports 2.10x for N=2 and 3.11x for N=3 on 5 cores)")
}
