package parallel_test

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/regexformula"
)

// CollectionEval schedules whole, independent documents across the
// worker pool — no splitter involved — and returns one relation
// per document, in input order.
func ExampleCollectionEval() {
	p := regexformula.MustCompile(".*(x{ab}).*|(x{ab}).*")
	docs := []string{
		"ab cd ab",
		"no match here",
		"ab",
	}
	rels := parallel.CollectionEval(p, docs, 4)
	for i, r := range rels {
		fmt.Printf("doc %d: %d match(es)\n", i, r.Len())
	}
	// Output:
	// doc 0: 2 match(es)
	// doc 1: 0 match(es)
	// doc 2: 1 match(es)
}
