package core_test

// External test package: the table tests exercise IsLocal on the
// ready-made splitters of internal/library, which itself imports core.

import (
	"errors"
	"testing"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/library"
	"repro/internal/regexformula"
	"repro/internal/span"
)

func mustSplitter(t *testing.T, src string) *core.Splitter {
	t.Helper()
	s, err := core.NewSplitter(regexformula.MustCompile(src))
	if err != nil {
		t.Fatalf("splitter %q: %v", src, err)
	}
	return s
}

// chunkedSplit is a reference implementation of the engine's carry-over
// segmenter (internal/engine.segmenter) on top of Split alone: feed the
// document in n-byte chunks, after each chunk split the buffered suffix,
// emit every span but the last, and restart the buffer at the last
// span's start. IsLocal promises this equals Split(doc) for any n.
func chunkedSplit(s *core.Splitter, doc string, n int) []span.Span {
	var out []span.Span
	buf := ""
	off := 0 // 0-based offset of buf[0] in doc
	emit := func(spans []span.Span, all bool) {
		keep := len(spans) - 1
		if all {
			keep = len(spans)
		}
		by := span.Span{Start: off + 1, End: off + 1}
		for _, sp := range spans[:keep] {
			out = append(out, sp.Shift(by))
		}
		if !all && keep >= 0 {
			cut := spans[len(spans)-1].Start - 1
			off += cut
			buf = buf[cut:]
		}
	}
	for lo := 0; lo < len(doc); lo += n {
		hi := lo + n
		if hi > len(doc) {
			hi = len(doc)
		}
		buf += doc[lo:hi]
		if spans := s.Split(buf); len(spans) >= 2 {
			emit(spans, false)
		}
	}
	emit(s.Split(buf), true)
	return out
}

func assertChunkedMatches(t *testing.T, name string, s *core.Splitter, docs []string) {
	t.Helper()
	for _, doc := range docs {
		want := s.Split(doc)
		for _, n := range []int{1, 2, 3, 7, 4096} {
			got := chunkedSplit(s, doc, n)
			if len(got) != len(want) {
				t.Fatalf("%s: doc %q chunk %d: %d spans, want %d (%v vs %v)",
					name, doc, n, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: doc %q chunk %d: span %d = %v, want %v", name, doc, n, i, got[i], want[i])
				}
			}
		}
	}
}

// Splitters the procedure must prove local: the separator-driven
// splitters that motivated PR 3's opt-in flag.
func TestIsLocalLibrarySplitters(t *testing.T) {
	cases := []struct {
		name string
		s    *core.Splitter
	}{
		{"sentences", library.Sentences()},
		{"paragraphs", library.Paragraphs()},
		{"tokens", library.Tokens()},
		{"http-requests", library.HTTPRequests()},
	}
	docs := []string{
		"", ".", "a", "one. two! three? four\nfive.", "a.b.c.d", "..!!..",
		"no terminator at all", "trailing terminator.", "a;b;;c", " lead space",
	}
	for _, c := range cases {
		ok, err := c.s.IsLocal(0)
		if err != nil {
			t.Fatalf("%s: IsLocal: %v", c.name, err)
		}
		if !ok {
			t.Fatalf("%s: IsLocal = false, want a locality proof", c.name)
		}
		assertChunkedMatches(t, c.name, c.s, docs)
	}
}

func TestIsLocalKnownNonLocal(t *testing.T) {
	block := "[^.!]*"
	cases := []struct {
		name string
		src  string
		// wantDisjoint sanity-checks the instance exercises the intended
		// path: IsLocal must refuse non-disjoint splitters outright and
		// refuse disjoint-but-unprovable ones after analysis.
		wantDisjoint bool
	}{
		// Segmentation valid only on documents ending in '!': whether a
		// block is a span depends on unbounded right context (fails L1,
		// committed acceptance).
		{"suffix-conditioned", "(x{" + block + "})(\\." + block + ")*!|" +
			block + "(\\." + block + ")*\\.(x{" + block + "})(\\." + block + ")*!", true},
		// Every '.'-separated block except the first: a suffix re-split
		// from a cut drops its own first block, so segmentation does not
		// factor at span starts (fails L3, the frontier pair walk).
		{"all-but-first-block", "[^.]*\\.([^.]*\\.)*(x{[^.]*})(\\.[^.]*)*", true},
		// Whole-document capture over a partial domain: bytes outside
		// [ab] kill every run after the open (fails L1).
		{"whole-doc-capture", "(x{(a|b)*})", true},
		// 2-grams overlap; only disjoint splitters can be local.
		{"2-grams", "(x{[^ ]+ [^ ]+})( .*)?|.* (x{[^ ]+ [^ ]+})( .*)?", false},
	}
	for _, c := range cases {
		s := mustSplitter(t, c.src)
		if got := s.IsDisjoint(); got != c.wantDisjoint {
			t.Fatalf("%s: IsDisjoint = %v, want %v", c.name, got, c.wantDisjoint)
		}
		ok, err := s.IsLocal(0)
		if err != nil {
			t.Fatalf("%s: IsLocal: %v", c.name, err)
		}
		if ok {
			t.Fatalf("%s: IsLocal = true, but the splitter is not local", c.name)
		}
	}
}

// The suffix-conditioned splitter is not merely unprovable: chunked
// segmentation actually diverges from whole-document segmentation, which
// is exactly the mis-extraction a forced StreamIncremental override
// risks and a "local" verdict must never permit.
func TestNonLocalSplitterActuallyDiverges(t *testing.T) {
	block := "[^.!]*"
	s := mustSplitter(t, "(x{"+block+"})(\\."+block+")*!|"+
		block+"(\\."+block+")*\\.(x{"+block+"})(\\."+block+")*!")
	doc := "ab.cd!e" // ends in neither '!' nor a clean block: S(doc) = ∅
	if got := s.Split(doc); len(got) != 0 {
		t.Fatalf("Split(%q) = %v, want empty", doc, got)
	}
	// Chunk size 1 sees "ab.cd!" mid-stream, believes "ab" is settled,
	// and emits it — a span the whole document never produces.
	if got := chunkedSplit(s, doc, 1); len(got) == 0 {
		t.Fatalf("chunked segmentation unexpectedly agrees; the divergence witness is stale")
	}
}

// Degenerate splitters are trivially local: they never produce two
// spans in any buffer, so the segmenter never emits early.
func TestIsLocalDegenerate(t *testing.T) {
	for _, src := range []string{
		"(x{})",                 // matches only the empty document
		"(x{[^.]*})(\\.[^.]*)*", // first '.'-free block only: one span per document
	} {
		s := mustSplitter(t, src)
		ok, err := s.IsLocal(0)
		if err != nil {
			t.Fatalf("%q: IsLocal: %v", src, err)
		}
		if !ok {
			t.Fatalf("%q: IsLocal = false, want true", src)
		}
		assertChunkedMatches(t, src, s, []string{"", "a", "ab.cd", "x.y.z", "..", "q!r"})
	}
}

// CutSafe is the right half of cut independence (the corollary in
// locality.go): truncating a document at a span end must leave exactly the
// spans before the cut. The separator-driven library splitters have it;
// the refusals each come with the document on which a cut goes wrong, so
// none of them is the check being merely cautious.
func TestCutSafeLibrarySplitters(t *testing.T) {
	for name, s := range map[string]*core.Splitter{
		"sentences":     library.Sentences(),
		"paragraphs":    library.Paragraphs(),
		"tokens":        library.Tokens(),
		"http-requests": library.HTTPRequests(),
		"empty-doc":     mustSplitter(t, "(x{})"),
		"first-block":   mustSplitter(t, "(x{[^.]*})(\\.[^.]*)*"),
	} {
		if !s.CutSafe() {
			t.Errorf("%s: CutSafe = false, want true", name)
		}
	}
	for _, c := range []struct {
		name, src string
		// On doc, S has the span [lo, hi⟩, yet S(doc[lo-1:hi-1]) is not
		// that span alone — wantCut spans instead.
		doc     string
		lo, hi  int
		wantCut int
	}{
		// A sentence counts only once its '.' has been read: the close
		// needs one more byte than the span, and the cut takes it away.
		{"close-needs-next-byte", "(x{[^.]*})\\..*|.*\\.(x{[^.]*})\\..*", "ab.cd", 1, 3, 0},
		// The same for an empty span marking each '.': local (it is
		// stateless), but the chunk holding the mark is the empty string.
		{"wrap-needs-next-byte", ".*(x{})\\..*", "a.b", 2, 2, 0},
		// Words, plus an empty span at the end of a document that does not
		// end in '.': where a word closes, a shorter document has two spans.
		{"end-wrap-at-a-close", "(x{[^.]+})(\\..*)?|.*\\.(x{[^.]+})(\\..*)?|(.*[^.])?(x{})", "ab.c", 1, 3, 2},
	} {
		s := mustSplitter(t, c.src)
		if !s.IsDisjoint() {
			t.Fatalf("%s: not disjoint; the case must reach the scanner", c.name)
		}
		if s.CutSafe() {
			t.Errorf("%s: CutSafe = true, want false", c.name)
		}
		want := span.Span{Start: c.lo, End: c.hi}
		found := false
		for _, sp := range s.SplitReference(c.doc) {
			found = found || sp == want
		}
		if cut := s.SplitReference(c.doc[c.lo-1 : c.hi-1]); !found || len(cut) != c.wantCut {
			t.Errorf("%s: S(%q) has %v: %v, and the cut has %v, want %d spans; the witness is stale",
				c.name, c.doc, want, found, cut, c.wantCut)
		}
	}
	if library.NGrams(2).CutSafe() {
		t.Error("2-grams: CutSafe = true for a splitter that is not disjoint")
	}
}

// A starved state budget must surface as automata.ErrTooLarge (verdict
// unknown), never as a false "local". The smallest sufficient budgets
// are pinned: they are the sizes of the largest subset space the
// analysis enumerates, and were the same before the enumerations moved
// onto automata.Subsets.
func TestIsLocalStateLimit(t *testing.T) {
	for _, c := range []struct {
		name string
		mk   func() *core.Splitter
		need int
	}{
		{"sentences", library.Sentences, 6},
		{"paragraphs", library.Paragraphs, 6},
		{"tokens", library.Tokens, 49},
	} {
		for _, limit := range []int{1, c.need - 1} {
			ok, err := c.mk().IsLocal(limit)
			if !errors.Is(err, automata.ErrTooLarge) {
				t.Fatalf("%s: IsLocal(limit=%d) = (%v, %v), want ErrTooLarge", c.name, limit, ok, err)
			}
			if ok {
				t.Fatalf("%s: IsLocal reported a proof while over budget", c.name)
			}
		}
		if ok, err := c.mk().IsLocal(c.need); err != nil || !ok {
			t.Fatalf("%s: IsLocal(limit=%d) = (%v, %v), want (true, nil)", c.name, c.need, ok, err)
		}
	}
}
