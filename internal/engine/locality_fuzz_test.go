package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/span"
)

// fuzzSplitterFormula derives a splitter formula from the fuzzer's
// bytes. The families mix provably local splitters (separator-driven,
// with fuzzed separator sets — these exercise the contract under test),
// known-non-local ones (suffix-conditioned, first-block-skipping — the
// procedure must keep refusing them), and fully random formulas from
// the same generator shape the core differential tests use (anything
// can come out; any instance the procedure proves is held to the same
// soundness bar).
func fuzzSplitterFormula(mode uint8, c1, c2 byte, seed int64) string {
	seps := []string{".", ";", "!", "\\n", " ", "a", "b"}
	s1, s2 := seps[int(c1)%len(seps)], seps[int(c2)%len(seps)]
	sep := s1
	if s1 != s2 {
		sep = s1 + s2
	}
	blockStar := "(x{[^" + sep + "]*})"
	blockPlus := "(x{[^" + sep + "]+})"
	switch mode % 7 {
	case 0: // sentence-style blocks between fuzzed separators: local
		return blockStar + "([" + sep + "][^" + sep + "]*)*|" +
			"[^" + sep + "]*([" + sep + "][^" + sep + "]*)*[" + sep + "]" + blockStar + "([" + sep + "][^" + sep + "]*)*"
	case 1: // token-style maximal nonempty runs: local
		return blockPlus + "([" + sep + "].*)?|.*[" + sep + "]" + blockPlus + "([" + sep + "].*)?"
	case 2: // first block only — one span per document: trivially local
		return blockStar + "([" + sep + "][^" + sep + "]*)*"
	case 3: // every block except the first: disjoint but NOT local
		return "[^" + sep + "]*[" + sep + "]([^" + sep + "]*[" + sep + "])*" + blockStar + "([" + sep + "][^" + sep + "]*)*"
	case 4: // blocks valid only on documents ending in '!': NOT local
		b := "[^" + sep + "!]"
		w := "(x{" + b + "*})"
		return w + "([" + sep + "]" + b + "*)*!|" + b + "*([" + sep + "]" + b + "*)*[" + sep + "]" + w + "([" + sep + "]" + b + "*)*!"
	case 5: // token-style with an extra non-separator excluded byte: local
		// (the excluded byte kills a run that has emitted nothing yet)
		return "(x{[^q" + sep + "]+})([" + sep + "].*)?|.*[" + sep + "](x{[^q" + sep + "]+})([" + sep + "].*)?"
	default: // fully random unary formula
		return randomSplitterFormula(rand.New(rand.NewSource(seed)))
	}
}

// randomSplitterFormula mirrors core's randomUnaryFormula: a random
// regex with exactly one capture, over a tiny alphabet plus contexts.
func randomSplitterFormula(rng *rand.Rand) string {
	var piece func(d int) string
	piece = func(d int) string {
		if d == 0 {
			return string(rune('a' + rng.Intn(2)))
		}
		switch rng.Intn(5) {
		case 0:
			return piece(d-1) + piece(d-1)
		case 1:
			return "(" + piece(d-1) + ")*"
		case 2:
			return "(" + piece(d-1) + "|" + piece(d-1) + ")"
		default:
			return string(rune('a' + rng.Intn(2)))
		}
	}
	ctx := []string{".*", "a*", "(a|b)*", "", "[^b]*"}
	return ctx[rng.Intn(len(ctx))] + "(x{" + piece(2) + "})" + ctx[rng.Intn(len(ctx))]
}

// scribbledReads hands doc to feed in fixed n-byte chunks the way
// the engine reads a stream — one read buffer reused for every chunk, here
// scribbled over with separator bytes after each feed — so that anything
// that still aliases the buffer comes back changed.
func scribbledReads(doc string, n int, feed func([]byte)) {
	chunk := make([]byte, n)
	for lo := 0; lo < len(doc); lo += n {
		m := copy(chunk, doc[lo:])
		feed(chunk[:m])
		for j := range chunk {
			chunk[j] = ".;! \n"[j%5]
		}
	}
}

// chunkedSegments drives the engine's segmenter over doc through
// scribbledReads and holds every emitted chunk to the end, so a Text that
// aliased the read buffer or the segmenter's compacted carry-over would
// come back changed. A splitter without a cut finder has no chunked
// route; for one with a scanner the helper replays core.ScanRun's anchor
// protocol instead, as examples/streaming drives it by hand — each feed's
// committed spans as one chunk and, once the run bails, the document from
// its Anchor on as the last — and bailed reports that the run gave up.
func chunkedSegments(t testing.TB, s *core.Splitter, doc string, n int) (segs []parallel.Segment, bailed bool) {
	if _, ok := s.NewCutFinder(); ok {
		g := newTestSegmenter(t, s)
		scribbledReads(doc, n, func(chunk []byte) { segs = append(segs, g.feed(chunk, false)...) })
		return append(segs, g.feed(nil, true)...), false
	}
	run, ok := s.NewScanRun()
	if !ok {
		t.Fatalf("splitter has no compiled scanner")
	}
	var spans []span.Span
	emit := func() {
		if len(spans) > 0 {
			c := span.Span{Start: spans[0].Start, End: spans[len(spans)-1].End}
			segs = append(segs, parallel.Segment{Span: c, Text: c.In(doc)})
		}
	}
	scribbledReads(doc, n, func(chunk []byte) { spans, _ = run.Feed(chunk, spans[:0]); emit() })
	spans, ok = run.Flush(spans[:0])
	emit()
	if !ok {
		tail := span.Span{Start: run.Anchor() + 1, End: len(doc) + 1}
		segs = append(segs, parallel.Segment{Span: tail, Text: tail.In(doc)})
	}
	return segs, !ok
}

// checkScanRun holds the scanner run the segmenter feeds to S(d) = want
// for one read size n, through scribbledReads: the spans it commits,
// Flush's included, are S(d) — or, for a run that bails, a prefix of S(d)
// after which every span starts at or after the run's Anchor, inside the
// tail the segmenter hands on as the last chunk.
func checkScanRun(t testing.TB, s *core.Splitter, doc string, n int, want []span.Span) error {
	run, ok := s.NewScanRun()
	if !ok {
		t.Fatalf("splitter has no compiled scanner")
	}
	var got []span.Span
	scribbledReads(doc, n, func(chunk []byte) { got, _ = run.Feed(chunk, got) })
	got, ok = run.Flush(got)
	if ok {
		if !slices.Equal(got, want) {
			return fmt.Errorf("read %d: committed %v, want S(d) = %v", n, got, want)
		}
		return nil
	}
	if len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
		return fmt.Errorf("read %d: committed %v before bailing, not a prefix of S(d) = %v", n, got, want)
	}
	for _, sp := range want[len(got):] {
		if sp.Start <= run.Anchor() {
			return fmt.Errorf("read %d: span %v of S(d) starts before the bailed run's anchor %d", n, sp, run.Anchor())
		}
	}
	return nil
}

// checkBothGrains holds the splitter's two streaming layers to S(d) = want
// for one read size: the scanner run (see checkScanRun), and the chunks
// the segmenter's cut finder cuts, with the geometry
// TestScanSegmenterChunksCoverEverySpan states — every chunk is the
// document between a span start and a span end, chunks come in document
// order, and every span of S(d) lies in exactly one.
func checkBothGrains(t testing.TB, s *core.Splitter, doc string, n int, want []span.Span) error {
	if err := checkScanRun(t, s, doc, n, want); err != nil {
		return err
	}
	chunks, _ := chunkedSegments(t, s, doc, n)
	next := 0 // first span no chunk has covered yet
	for _, c := range chunks {
		if c.Text != c.Span.In(doc) {
			return fmt.Errorf("chunk=%d: chunk %v carries %q", n, c.Span, c.Text)
		}
		if next == len(want) || c.Span.Start != want[next].Start {
			return fmt.Errorf("chunk=%d: chunk %v does not start at the next span of %v", n, c.Span, want[next:])
		}
		for next < len(want) && want[next].End <= c.Span.End {
			next++
		}
		if want[next-1].End != c.Span.End {
			return fmt.Errorf("chunk=%d: chunk %v does not end at a span end of %v", n, c.Span, want)
		}
	}
	if next != len(want) {
		return fmt.Errorf("chunk=%d: spans %v were never covered by a chunk", n, want[next:])
	}
	return nil
}

// FuzzLocalityVsBuffered is the streaming half of the locality verdict's
// soundness contract: whenever IsLocal proves a fuzzed splitter local, the
// incremental scanner and the segmenter's cut finder must reproduce the
// one-shot segmentation (see checkBothGrains) at adversarial chunk sizes —
// 1 (every boundary lands mid-segment), 7 (misaligned with everything),
// 1000 (past the finder's window, so a longer document crosses several
// synchronized cuts, and a splitter that does not synchronize falls back)
// and 4096 (typically one chunk) — on fuzzed documents. A failure here
// means a "local" verdict admitted a splitter that incremental streaming
// mis-segments, i.e. a hole in the procedure's proof, not a flaky test.
func FuzzLocalityVsBuffered(f *testing.F) {
	f.Add(uint8(0), byte(0), byte(1), int64(1), "one. two! three\nfour.")
	f.Add(uint8(1), byte(4), byte(3), int64(2), "a b  c\nd ")
	f.Add(uint8(2), byte(1), byte(1), int64(3), "a;b;;c")
	f.Add(uint8(3), byte(0), byte(0), int64(4), "a.b.c.d")
	f.Add(uint8(4), byte(0), byte(2), int64(5), "ab.cd!e")
	f.Add(uint8(5), byte(4), byte(4), int64(6), "a qb c")
	f.Add(uint8(6), byte(5), byte(6), int64(7), "abba\x00\xffb")
	f.Fuzz(func(t *testing.T, mode uint8, c1, c2 byte, seed int64, doc string) {
		if len(doc) > 1<<12 {
			doc = doc[:1<<12]
		}
		src, s, ok := cutIndependentSplitter(mode, c1, c2, seed)
		if !ok {
			// Unproven or over budget: the engine would buffer; nothing to
			// verify. (Known-local families are pinned by the core table
			// tests, so the fuzz cannot silently degenerate to all-skips.)
			return
		}
		want := s.Split(doc)
		for _, n := range []int{1, 7, 1000, 4096} {
			if err := checkBothGrains(t, s, doc, n, want); err != nil {
				t.Fatalf("%v\nsplitter: %s\ndoc: %q", err, src, doc)
			}
		}
	})
}

// TestLocalityFuzzCorpusSmoke replays the seed corpus shapes against a
// deterministic document sweep, so `go test` (without -fuzz) still
// exercises every generator family end to end.
func TestLocalityFuzzCorpusSmoke(t *testing.T) {
	docs := []string{
		"", ".", "!", "one. two! three\nfour.", "a b  c\nd ", "a;b;;c",
		"a.b.c.d", "ab.cd!e", "a qb c", strings.Repeat("word. ", 40),
		// Longer than the cut finder's window: several synchronized cuts
		// at reads of 1 000 bytes, or its fallback.
		strings.Repeat("one. two! three\nfour;a b ", 100), strings.Repeat("abbab", 300),
	}
	proved := 0
	for mode := uint8(0); mode < 7; mode++ {
		for _, c := range []byte{0, 1, 4} {
			src, s, ok := cutIndependentSplitter(mode, c, c+1, int64(mode)*31+int64(c))
			if !ok {
				continue
			}
			proved++
			for _, doc := range docs {
				want := s.Split(doc)
				for _, n := range []int{1, 7, 1000, 4096} {
					if err := checkBothGrains(t, s, doc, n, want); err != nil {
						t.Fatalf("mode=%d doc=%q splitter=%s: %v", mode, doc, src, err)
					}
				}
			}
		}
	}
	if proved < 6 {
		t.Fatalf("only %d fuzz-shape splitters were proven local; the generator lost its local families", proved)
	}
}
