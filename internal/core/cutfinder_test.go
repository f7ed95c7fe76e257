package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/regexformula"
	"repro/internal/span"
)

// finderChunks drives a cut finder over doc in reads of n bytes through a
// buffer trimmed to Keep after every call, as the engine's streamed route
// does, and returns its chunks after checking each one's text.
func finderChunks(t *testing.T, s *Splitter, doc string, n int) ([]span.Span, *CutFinder) {
	t.Helper()
	f, ok := s.NewCutFinder()
	if !ok {
		t.Fatal("no cut finder")
	}
	var chunks []span.Span
	var buf []byte
	off := 0
	for lo := 0; ; lo += n {
		hi := min(lo+n, len(doc))
		buf = append(buf, doc[lo:hi]...)
		if sp, ok := f.Cut(buf, off, hi == len(doc)); ok {
			if got := string(buf[sp.Start-1-off : sp.End-1-off]); got != sp.In(doc) {
				t.Fatalf("read %d: chunk %v carries %q", n, sp, got)
			}
			chunks = append(chunks, sp)
		}
		keep := f.Keep()
		if keep < off || keep > hi {
			t.Fatalf("read %d: Keep %d outside the buffer [%d, %d)", n, keep, off, hi)
		}
		buf, off = buf[keep-off:], keep
		if hi == len(doc) {
			return chunks, f
		}
	}
}

// checkCuts holds chunks to S(d) = want: each runs from a span start to a
// span end, they come in document order, and every span lies in exactly
// one.
func checkCuts(t *testing.T, chunks, want []span.Span) {
	t.Helper()
	next := 0 // first span no chunk has covered yet
	for _, c := range chunks {
		if next == len(want) || c.Start != want[next].Start {
			t.Fatalf("chunk %v does not start at the next span of %v", c, want[next:])
		}
		for next < len(want) && want[next].End <= c.End {
			next++
		}
		if want[next-1].End != c.End {
			t.Fatalf("chunk %v does not end at a span end of %v", c, want)
		}
	}
	if next != len(want) {
		t.Fatalf("spans %v were never covered by a chunk", want[next:])
	}
}

// cutTestDoc concatenates random fragments up to n bytes: separators of
// every fuzz family, the random formulas' a/b alphabet, and filler.
func cutTestDoc(rng *rand.Rand, n int) string {
	frags := []string{"a", "b", "ab", "ba", ".", ";", "!", "\n", " ", "xy", "q", "word", "abba "}
	var b strings.Builder
	for b.Len() < n {
		b.WriteString(frags[rng.Intn(len(frags))])
	}
	return b.String()[:n]
}

// TestCutFinderCutsAtSpanEnds holds the finder to the chunk geometry on
// every cut-safe splitter of the scanner's fuzz families, at reads inside
// and past its window, streamed and over a whole string.
func TestCutFinderCutsAtSpanEnds(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	docs := []string{"", ".", "a", "a.", ". .", "ab;;ba", "aaaa", "abab!"}
	for _, n := range []int{200, 700, 3000} {
		docs = append(docs, cutTestDoc(rng, n))
	}
	found := 0
	for mode := uint8(0); mode < 12; mode++ {
		for _, c := range []byte{0, 1, 3, 4} {
			src := scanFuzzFormula(mode, c, c+2, int64(mode)*17+int64(c))
			auto, err := regexformula.Compile(src)
			if err != nil || auto.Arity() != 1 {
				continue
			}
			s, err := NewSplitter(auto)
			if err != nil || s.CutStates() == 0 {
				continue
			}
			found++
			for _, doc := range docs {
				want := s.SplitReference(doc)
				for _, n := range []int{1, 7, 100, 1000, 4096} {
					chunks, _ := finderChunks(t, s, doc, n)
					checkCuts(t, chunks, want)
				}
				f, _ := s.NewCutFinder()
				checkCuts(t, f.Chunks(doc, 600), want)
			}
		}
	}
	if found < 10 {
		t.Fatalf("only %d cut-safe splitters: the families lost their shape", found)
	}
}

// TestCutFinderSkipsChunkInteriors: on sentences fed in reads of 4 KiB,
// each feed converges on a terminator in its last window, so the finder
// steps a window and one sentence per feed, far fewer bytes than the
// document has, and never falls back.
func TestCutFinderSkipsChunkInteriors(t *testing.T) {
	s := MustSplitter(regexformula.MustCompile(
		"(x{[^.!]*})([.!][^.!]*)*|[^.!]*([.!][^.!]*)*[.!](x{[^.!]*})([.!][^.!]*)*"))
	doc := strings.Repeat("so bad a day. what weather! ", 600)
	chunks, f := finderChunks(t, s, doc, 4096)
	checkCuts(t, chunks, s.SplitReference(doc))
	if f.Fallbacks() != 0 || f.steps > len(doc)/4 {
		t.Fatalf("%d fallbacks, %d steps for %d bytes: want none, and the chunks' interiors skipped", f.Fallbacks(), f.steps, len(doc))
	}
}

// TestCutFinderFallsBackWithoutConvergence: the whole document is the one
// span when its length is even. The finder's states count parity and never
// converge, so every window falls back and the one cut is the document's
// end, found exactly.
func TestCutFinderFallsBackWithoutConvergence(t *testing.T) {
	s := MustSplitter(regexformula.MustCompile("(x{(..)*})"))
	if s.CutStates() < 2 {
		t.Fatalf("K = %d: the parity splitter lost its states", s.CutStates())
	}
	for _, size := range []int{3000, 3001} {
		doc := strings.Repeat("ab", size)[:size]
		for _, n := range []int{1000, 4096} {
			chunks, f := finderChunks(t, s, doc, n)
			checkCuts(t, chunks, s.SplitReference(doc))
			if window := s.CutStates() * 512; f.Fallbacks() == 0 || f.steps > len(doc)+(len(doc)/n+1)*window {
				t.Fatalf("%d bytes in reads of %d: %d fallbacks, %d steps", size, n, f.Fallbacks(), f.steps)
			}
		}
	}
}

// TestCutFinderFallbackIsLinear: a sentence with no terminator of
// 256 KiB, then 512 KiB, falls back in every window, and still costs
// linear work — doubling the document at most doubles the steps, plus one
// window of K states — at reads of 1 byte, where no feed outruns the known
// state and no window may be stepped again, and of 64 KiB, where each feed
// first tries its window.
func TestCutFinderFallbackIsLinear(t *testing.T) {
	s := MustSplitter(regexformula.MustCompile(
		"(x{[^.!]*})([.!][^.!]*)*|[^.!]*([.!][^.!]*)*[.!](x{[^.!]*})([.!][^.!]*)*"))
	for _, n := range []int{1, 64 << 10} {
		var steps []int
		for _, size := range []int{256 << 10, 512 << 10} {
			doc := strings.Repeat("so bad weather ", size/15+1)[:size]
			chunks, f := finderChunks(t, s, doc, n)
			if len(chunks) != 1 || chunks[0] != (span.Span{Start: 1, End: size + 1}) || f.Fallbacks() == 0 {
				t.Fatalf("reads of %d, %d bytes: chunks %v, %d fallbacks; want the whole document, by fallback", n, size, chunks, f.Fallbacks())
			}
			steps = append(steps, f.steps)
		}
		if steps[1] > 2*steps[0]+s.CutStates()*syncWindow {
			t.Fatalf("reads of %d: %d steps for 256 KiB, %d for 512 KiB: not linear", n, steps[0], steps[1])
		}
	}
}
