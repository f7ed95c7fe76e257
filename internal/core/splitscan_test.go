package core

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/regexformula"
	"repro/internal/span"
)

// scanFuzzFormula derives a splitter formula from fuzzer bytes: the
// separator-driven families the scanner is built for, splitters with
// deliberately nasty shapes (suffix-conditioned closes that force
// bails, wrap-producing empties), and fully random unary formulas.
func scanFuzzFormula(mode uint8, c1, c2 byte, seed int64) string {
	seps := []string{".", ";", "!", "\\n", " ", "a", "b"}
	s1, s2 := seps[int(c1)%len(seps)], seps[int(c2)%len(seps)]
	sep := s1
	if s1 != s2 {
		sep = s1 + s2
	}
	blockStar := "(x{[^" + sep + "]*})"
	blockPlus := "(x{[^" + sep + "]+})"
	switch mode % 7 {
	case 0: // sentence-style blocks between separators
		return blockStar + "([" + sep + "][^" + sep + "]*)*|" +
			"[^" + sep + "]*([" + sep + "][^" + sep + "]*)*[" + sep + "]" + blockStar + "([" + sep + "][^" + sep + "]*)*"
	case 1: // token-style maximal nonempty runs
		return blockPlus + "([" + sep + "].*)?|.*[" + sep + "]" + blockPlus + "([" + sep + "].*)?"
	case 2: // first block only — one span per document
		return blockStar + "([" + sep + "][^" + sep + "]*)*"
	case 3: // every block except the first: disjoint, scanner-hostile opens
		return "[^" + sep + "]*[" + sep + "]([^" + sep + "]*[" + sep + "])*" + blockStar + "([" + sep + "][^" + sep + "]*)*"
	case 4: // blocks valid only on documents ending in '!': closes never commit
		b := "[^" + sep + "!]"
		w := "(x{" + b + "*})"
		return w + "([" + sep + "]" + b + "*)*!|" + b + "*([" + sep + "]" + b + "*)*[" + sep + "]" + w + "([" + sep + "]" + b + "*)*!"
	case 5: // empty span at the first separator boundary: wrap events
		return "[^" + sep + "]*(x{})[" + sep + "].*|[^" + sep + "]*(x{})"
	default: // fully random unary formula
		return randomUnaryFormula(rand.New(rand.NewSource(seed)), "x", 2)
	}
}

func spansEqual(a, b []span.Span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// chunkedScan drives a resumable ScanRun over doc in n-byte chunks.
func chunkedScan(t *testing.T, s *Splitter, doc string, n int) (spans []span.Span, ok bool) {
	t.Helper()
	r, have := s.NewScanRun()
	if !have {
		t.Fatalf("NewScanRun failed for a splitter whose Split used the scanner")
	}
	ok = true
	for lo := 0; lo < len(doc) && ok; lo += n {
		hi := lo + n
		if hi > len(doc) {
			hi = len(doc)
		}
		spans, ok = r.Feed([]byte(doc[lo:hi]), spans)
	}
	if ok {
		spans, ok = r.Flush(spans)
	}
	return spans, ok
}

// isSubsequence reports whether sub appears, in order, within full.
func isSubsequence(sub, full []span.Span) bool {
	j := 0
	for _, sp := range sub {
		for j < len(full) && full[j] != sp {
			j++
		}
		if j == len(full) {
			return false
		}
		j++
	}
	return true
}

// FuzzScanVsSplit is the scanner's correctness contract: on every
// splitter, Split (scanner with built-in fallback) must be
// byte-identical to SplitReference (the Eval path it replaced); and on
// every disjoint splitter, a resumable ScanRun fed adversarial chunk
// sizes — 1, 7 and 4096 — must either reproduce the reference spans
// exactly or bail having emitted only an in-order subset of them
// (committed spans are valid even on a bailing run; the engine re-splits
// the rest through the reference path).
func FuzzScanVsSplit(f *testing.F) {
	f.Add(uint8(0), byte(0), byte(1), int64(1), "one. two! three\nfour.")
	f.Add(uint8(1), byte(4), byte(3), int64(2), "a b  c\nd ")
	f.Add(uint8(2), byte(1), byte(1), int64(3), "a;b;;c")
	f.Add(uint8(3), byte(0), byte(0), int64(4), "a.b.c.d")
	f.Add(uint8(4), byte(0), byte(2), int64(5), "ab.cd!e")
	f.Add(uint8(5), byte(2), byte(2), int64(6), "ab!cd!")
	f.Add(uint8(6), byte(5), byte(6), int64(7), "abba\x00\xffb")
	f.Fuzz(func(t *testing.T, mode uint8, c1, c2 byte, seed int64, doc string) {
		if len(doc) > 1<<12 {
			doc = doc[:1<<12]
		}
		src := scanFuzzFormula(mode, c1, c2, seed)
		auto, err := regexformula.Compile(src)
		if err != nil || auto.Arity() != 1 {
			t.Skip()
		}
		s, err := NewSplitter(auto)
		if err != nil {
			t.Skip()
		}
		want := s.SplitReference(doc)
		if got := s.Split(doc); !spansEqual(got, want) {
			t.Fatalf("Split != SplitReference on %q\nformula %s\ngot  %v\nwant %v", doc, src, got, want)
		}
		if _, have := s.NewScanRun(); !have {
			return // not disjoint: no scanner to stream with
		}
		for _, n := range []int{1, 7, 4096} {
			got, ok := chunkedScan(t, s, doc, n)
			if ok {
				if !spansEqual(got, want) {
					t.Fatalf("chunked scan (n=%d) != SplitReference on %q\nformula %s\ngot  %v\nwant %v", n, doc, src, got, want)
				}
				continue
			}
			if !isSubsequence(got, want) {
				t.Fatalf("bailing scan (n=%d) emitted spans outside the reference on %q\nformula %s\ngot  %v\nwant %v", n, doc, src, got, want)
			}
		}
	})
}

func TestScanRunResumesAcrossChunks(t *testing.T) {
	// The library sentence shape: spans tile the document, so a resumable
	// run must keep its pending open across every chunk boundary.
	auto := regexformula.MustCompile("(x{[^.]*})(\\.[^.]*)*|[^.]*(\\.[^.]*)*\\.(x{[^.]*})(\\.[^.]*)*")
	s := MustSplitter(auto)
	doc := "alpha.beta.gamma.delta"
	want := s.SplitReference(doc)
	if len(want) != 4 {
		t.Fatalf("reference produced %d spans, want 4: %v", len(want), want)
	}
	for n := 1; n <= len(doc)+1; n++ {
		got, ok := chunkedScan(t, s, doc, n)
		if !ok {
			t.Fatalf("scan bailed at chunk size %d", n)
		}
		if !spansEqual(got, want) {
			t.Fatalf("chunk size %d: got %v, want %v", n, got, want)
		}
	}
}

// TestScanRunConcurrentColdSplitter runs the splitter scanner the way
// the engine's streaming segmenters do — many resumable runs over one
// shared Splitter — with its DFA cold, so runs fill transitions and
// skip sets while others walk older snapshots, and half the goroutines
// first decide locality, whose closure fills every transition too. Every
// goroutine feeds its own documents at read sizes 1, 7 and 4096 and must
// reproduce SplitReference exactly.
func TestScanRunConcurrentColdSplitter(t *testing.T) {
	s := MustSplitter(regexformula.MustCompile("(x{[^.]*})(\\.[^.]*)*|[^.]*(\\.[^.]*)*\\.(x{[^.]*})(\\.[^.]*)*"))
	if _, ok := s.NewScanRun(); !ok {
		t.Fatal("sentence splitter has no scanner")
	}
	pieces := []string{"a", "b", "ab ", " ", ".", "..", strings.Repeat("b", 300), strings.Repeat(" a", 2500)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				if ok, err := s.IsLocal(0); err != nil || !ok {
					t.Errorf("goroutine %d: IsLocal = (%v, %v), want a proof", g, ok, err)
					return
				}
			}
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 6; i++ {
				var doc strings.Builder
				for k := rng.Intn(24); k > 0; k-- {
					doc.WriteString(pieces[rng.Intn(len(pieces))])
				}
				want := s.SplitReference(doc.String())
				for _, n := range []int{1, 7, 4096} {
					if got, ok := chunkedScan(t, s, doc.String(), n); !ok || !spansEqual(got, want) {
						t.Errorf("goroutine %d, read size %d: ok=%v, spans %v, want %v", g, n, ok, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestScanRunAnchorTracksLastOpen(t *testing.T) {
	auto := regexformula.MustCompile("(x{[^.]*})(\\.[^.]*)*|[^.]*(\\.[^.]*)*\\.(x{[^.]*})(\\.[^.]*)*")
	s := MustSplitter(auto)
	r, ok := s.NewScanRun()
	if !ok {
		t.Fatal("no scanner for the sentence splitter")
	}
	if r.Anchor() != 0 {
		t.Fatalf("fresh run anchor = %d, want 0", r.Anchor())
	}
	spans, ok := r.Feed([]byte("aaa.bb"), nil)
	if !ok {
		t.Fatal("feed bailed")
	}
	if len(spans) != 1 || spans[0] != (span.Span{Start: 1, End: 4}) {
		t.Fatalf("spans after first feed: %v", spans)
	}
	// The second sentence opened at boundary 5 (byte offset 4): only the
	// suffix from there may still be needed.
	if r.Anchor() != 4 {
		t.Fatalf("anchor = %d, want 4", r.Anchor())
	}
	spans, ok = r.Flush(spans)
	if !ok {
		t.Fatal("flush bailed")
	}
	if len(spans) != 2 || spans[1] != (span.Span{Start: 5, End: 7}) {
		t.Fatalf("spans after flush: %v", spans)
	}
}

func TestScannerBailsOnSuffixConditionedSplitter(t *testing.T) {
	// Blocks are only valid on documents ending in '!': no close can
	// commit mid-document, so the scanner must bail (never mis-emit) and
	// Split must still answer through the reference path.
	auto := regexformula.MustCompile("(x{[^.!]*})(\\.[^.!]*)*!|[^.!]*(\\.[^.!]*)*\\.(x{[^.!]*})(\\.[^.!]*)*!")
	s := MustSplitter(auto)
	for _, doc := range []string{"ab.cd!", "ab.cd", "!", ""} {
		want := s.SplitReference(doc)
		if got := s.Split(doc); !spansEqual(got, want) {
			t.Fatalf("Split(%q) = %v, want %v", doc, got, want)
		}
	}
}

func TestNonDisjointSplitterHasNoScanner(t *testing.T) {
	// x{a*} on "aa" produces overlapping spans: not disjoint.
	auto := regexformula.MustCompile(".*(x{a*}).*")
	s := MustSplitter(auto)
	if s.IsDisjoint() {
		t.Fatal("test splitter unexpectedly disjoint")
	}
	if _, ok := s.NewScanRun(); ok {
		t.Fatal("non-disjoint splitter returned a scan run")
	}
	doc := "aab"
	if got, want := s.Split(doc), s.SplitReference(doc); !spansEqual(got, want) {
		t.Fatalf("Split fell off the reference path: %v vs %v", got, want)
	}
}
