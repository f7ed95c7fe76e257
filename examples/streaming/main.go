// The three streaming modes of the extraction engine, demonstrated on
// ngram-style word splitters:
//
//  1. Proven-local auto-stream: the unigram (1-gram) splitter's
//     locality is decided on its automaton (core.Splitter.IsLocal), so
//     the engine segments uploads incrementally with no configuration —
//     correctness by proof.
//  2. Forced -stream-incremental: a disjoint splitter the procedure
//     refuses (the values of a "key value value …!" record: every word
//     but the first, and only when the record ends in '!') can be
//     force-streamed, but the flag is an unsafe assertion — this program
//     shows the silent mis-extraction a wrong assertion causes.
//  3. Buffer-all fallback: the same unproven splitter on a default
//     engine is buffered whole, which is sound for every splitter.
//
// Modes 2 and 3 use a record of some 36 KB: a stream that ends inside its
// first 32 KiB is evaluated whole, whatever the flags, and never meets the
// incremental segmenter.
//
// Run with: go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	spanners "repro"
)

const (
	// A unigram splitter: every space/bang-separated word, ngram-style
	// with n=1. Separators and word bytes partition the alphabet, so
	// segmentation is separator-determined — the locality procedure
	// proves it streamable.
	unigramFormula = `(x{[^ !]+})([ !].*)?|.*[ !](x{[^ !]+})([ !].*)?`
	// Word extractor of the same shape: self-splittable by unigrams.
	wordFormula = `(y{[^ !]+})([ !].*)?|.*[ !](y{[^ !]+})([ !].*)?`

	// The values of a record "key value value …!": every word except
	// the first, and only on records that end in '!'. Whether a word is
	// a segment depends on the last byte of the document (unbounded
	// right context) and on whether a word came before it (left
	// context). Disjoint, but provably NOT local, and genuinely unsafe
	// to stream.
	valuesFormula = `[^ !]+( [^ !]+)* (x{[^ !]+})( [^ !]+)*!`
	// Its split-correct companion pair: P extracts every value of a
	// '!'-terminated record, and per segment the split-spanner P_S
	// selects the whole word, so P = P_S ∘ S holds (and the engine
	// proves it).
	recordValuesFormula = `[^ !]+( [^ !]+)* (y{[^ !]+})( [^ !]+)*!`
	segWordFormula      = `(y{[^ !]+})`
)

func run(w io.Writer, name string, cfg spanners.EngineConfig, req spanners.ExtractRequest, doc string) {
	ctx := context.Background()
	eng := spanners.NewEngine(cfg)
	plan, _, err := eng.Plan(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	streamed, err := eng.ExtractReader(ctx, plan, strings.NewReader(doc))
	if err != nil {
		log.Fatal(err)
	}
	oneShot, err := eng.Extract(ctx, plan, doc)
	if err != nil {
		log.Fatal(err)
	}
	preview := doc
	if len(doc) > 40 {
		preview = doc[:24] + "…" + doc[len(doc)-12:]
	}
	fmt.Fprintf(w, "%s\n", name)
	fmt.Fprintf(w, "  doc: %q (%d bytes)\n", preview, len(doc))
	fmt.Fprintf(w, "  strategy=%v disjoint=%v local=%v → streams without flag: %v\n",
		plan.Strategy, plan.Verdicts.Disjoint, plan.Verdicts.Local,
		plan.Verdicts.Local.String() == "yes")
	fmt.Fprintf(w, "  streamed %d tuples vs one-shot %d tuples — identical: %v\n\n",
		streamed.Len(), oneShot.Len(), streamed.Equal(oneShot))
}

func report(w io.Writer) {
	// The locality verdict, standalone: what /v1/check reports and what
	// the engine consults before streaming.
	s := spanners.MustCompileSplitter(unigramFormula)
	local, err := s.IsLocal()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "unigram splitter:        disjoint=%v local=%v\n", s.IsDisjoint(), local)
	u := spanners.MustCompileSplitter(valuesFormula)
	local, err = u.IsLocal()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "record-values splitter:  disjoint=%v local=%v\n\n", u.IsDisjoint(), local)

	// Mode 1: proven local — a default engine streams automatically and
	// the result is guaranteed identical to one-shot evaluation.
	run(w, "1· proven-local auto-stream (unigrams, default engine)",
		spanners.EngineConfig{Workers: 2, ChunkSize: 5},
		spanners.ExtractRequest{Spanner: wordFormula, Splitter: unigramFormula},
		"alpha beta gamma delta epsilon!")

	// Mode 3: the unproven splitter on a default engine buffers the
	// whole stream — slower to first result, but always correct.
	valuesReq := spanners.ExtractRequest{
		Spanner:      recordValuesFormula,
		SplitSpanner: segWordFormula,
		Splitter:     valuesFormula,
	}
	// Few, long values: every word start is a candidate segment the
	// reference splitter must follow to the closing '!'.
	record := "key first" + strings.Repeat(" "+strings.Repeat("v", 999), 36) + " last!"
	run(w, "3· buffer-all fallback (record values, default engine)",
		spanners.EngineConfig{Workers: 2},
		valuesReq, record)

	// Mode 2: forcing the unproven splitter on the same record. No value
	// can be committed before the closing '!' has been seen, so the
	// incremental segmenter gives up at the first one, keeps buffering
	// from where that value starts — the last byte offset it knows to be
	// a segment start — and splits "first value … last!" once the stream
	// ends. Cutting the document there would be sound for a local
	// splitter. This one reads "first" as the record's key: the first
	// value is silently missing from the result. This divergence is
	// exactly what the locality proof rules out.
	run(w, "2· forced -stream-incremental (record values; UNSAFE)",
		spanners.EngineConfig{Workers: 2, StreamIncremental: true},
		valuesReq, record)
}

func main() { report(os.Stdout) }
