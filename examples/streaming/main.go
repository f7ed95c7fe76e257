// The three streaming modes of the extraction engine, demonstrated on
// ngram-style word splitters:
//
//  1. Proven-local auto-stream: the unigram (1-gram) splitter's
//     locality — cut independence: any chunk from a word's start to a
//     word's end splits into exactly the words it holds — is decided on
//     its automaton (core.Splitter.IsLocal), so the engine cuts uploads
//     into chunks incrementally with no configuration — correctness by
//     proof.
//  2. Forced streaming: a disjoint splitter the procedure refuses (the
//     values of a "key value value …!" record: every word but the first,
//     and only when the record ends in '!'), segmented incrementally
//     anyway. The engine offers no way to do that; this program drives
//     the splitter's resumable scanner by hand, as a streamed route that
//     trusted it would, and shows the silent mis-extraction the locality
//     proof rules out.
//  3. Buffer-all fallback: the unproven splitter on the engine is
//     buffered whole, which is sound for every splitter.
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
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/regexformula"
	"repro/internal/span"
)

const (
	// A unigram splitter: every space/bang-separated word, ngram-style
	// with n=1. Separators and word bytes partition the alphabet, so
	// segmentation is separator-determined — the locality procedure
	// proves it cut independent, hence streamable.
	unigramFormula = `(x{[^ !]+})([ !].*)?|.*[ !](x{[^ !]+})([ !].*)?`
	// Word extractor of the same shape: self-splittable by unigrams.
	wordFormula = `(y{[^ !]+})([ !].*)?|.*[ !](y{[^ !]+})([ !].*)?`

	// The values of a record "key value value …!": every word except
	// the first, and only on records that end in '!'. Whether a word is
	// a segment depends on the last byte of the document (unbounded
	// right context) and on whether a word came before it (left
	// context). Disjoint, but NOT local — a chunk holding only some of
	// the record has no values at all — and genuinely unsafe to stream.
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
	fmt.Fprintf(w, "  strategy=%v disjoint=%v local=%v → streams: %v\n",
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

	// Mode 3: the unproven splitter on the engine buffers the whole
	// stream — slower to first result, but always correct. The record is
	// some 36 KB: a stream that ends inside its first 32 KiB is evaluated
	// whole and never meets the incremental segmenter.
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

	// Mode 2: streaming the unproven splitter over the same record. No
	// value can be committed before the closing '!' has been seen, so the
	// scanner gives up at the first one; the rest of the stream is kept
	// from where that value starts — the last byte offset the scanner knows
	// to be a segment start — and split once it ends. Cutting the document
	// there would be sound for a local splitter: that is its left cut. This
	// one reads "first" as the record's key: the first value is silently
	// missing from the result. This divergence is exactly what the
	// locality proof rules out.
	values := core.MustSplitter(regexformula.MustCompile(valuesFormula))
	spans, anchor := forcedStream(values, record, 64<<10)
	forced := parallel.SplitEval(regexformula.MustCompile(segWordFormula), parallel.SegmentsOf(record, spans), 2)
	oneShot := regexformula.MustCompile(recordValuesFormula).Eval(record)
	fmt.Fprintf(w, "2· forced stream of the unproven splitter (record values; UNSAFE)\n")
	fmt.Fprintf(w, "  doc: %q (%d bytes)\n", record[:24]+"…"+record[len(record)-12:], len(record))
	fmt.Fprintf(w, "  scanner bailed; the tail from byte %d was split on its own\n", anchor)
	fmt.Fprintf(w, "  streamed %d tuples vs one-shot %d tuples — identical: %v\n\n",
		forced.Len(), oneShot.Len(), forced.Equal(oneShot))
}

// forcedStream segments doc the way a streamed route would if it trusted
// s to be local: the scanner is fed read-sized chunks, and once
// it bails the tail from its anchor is split on its own at the end, spans
// the scanner already committed dropped. It returns the spans and the
// anchor (0-based) the tail was cut at.
func forcedStream(s *core.Splitter, doc string, read int) ([]span.Span, int) {
	run, ok := s.NewScanRun()
	if !ok {
		log.Fatal("the splitter has no scanner")
	}
	var spans []span.Span
	for lo := 0; lo < len(doc) && !run.Bailed(); lo += read {
		spans, _ = run.Feed([]byte(doc[lo:min(lo+read, len(doc))]), spans)
	}
	spans, ok = run.Flush(spans)
	if ok {
		log.Fatal("the scanner was expected to bail")
	}
	tail := span.Span{Start: run.Anchor() + 1, End: len(doc) + 1}
	for _, sp := range s.Split(tail.In(doc)) {
		if at := sp.Shift(tail); len(spans) == 0 || at.Compare(spans[len(spans)-1]) > 0 {
			spans = append(spans, at)
		}
	}
	return spans, run.Anchor()
}

func main() { report(os.Stdout) }
