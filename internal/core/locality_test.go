package core_test

// External test package: the table tests exercise IsLocal on the
// ready-made splitters of internal/library, which itself imports core.

import (
	"errors"
	"fmt"
	"slices"
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

// cutChunk returns S of the chunk of doc that runs from the start of span
// i of S(doc) to the end of span j, in doc's coordinates, and what cut
// independence says it must be: spans i..j. Both sides are SplitReference.
func cutChunk(s *core.Splitter, doc string, i, j int) (got, want []span.Span) {
	spans := s.SplitReference(doc)
	lo := spans[i].Start
	got = s.SplitReference(doc[lo-1 : spans[j].End-1])
	for k := range got {
		got[k] = got[k].Shift(span.Span{Start: lo, End: lo})
	}
	return got, spans[i : j+1]
}

// cutIndependenceBreak describes the first chunk of doc, over every pair
// of spans i ≤ j of S(doc), that does not segment into spans i..j, or
// returns "" when every chunk does.
func cutIndependenceBreak(s *core.Splitter, doc string) string {
	n := len(s.SplitReference(doc))
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if got, want := cutChunk(s, doc, i, j); !slices.Equal(got, want) {
				return fmt.Sprintf("the chunk of spans %d..%d segments into %v, want %v", i, j, got, want)
			}
		}
	}
	return ""
}

var cutDocs = []string{
	"", ".", "a", "one. two! three? four\nfive.", "a.b.c.d", "..!!..",
	"no terminator at all", "trailing terminator.", "a;b;;c", " lead space",
	"ab.cd", "x.y.z", "q!r", "a qb c", "quite a bad q day", "abba", "ab ba\n\nb",
}

// assertCutIndependent fails unless IsLocal proves s and every chunk of
// every cutDocs document bears the proof out.
func assertCutIndependent(t *testing.T, name string, s *core.Splitter) {
	t.Helper()
	if ok, err := s.IsLocal(0); err != nil || !ok {
		t.Fatalf("%s: IsLocal = (%v, %v), want a proof", name, ok, err)
	}
	for _, doc := range cutDocs {
		if msg := cutIndependenceBreak(s, doc); msg != "" {
			t.Fatalf("%s: doc %q: %s", name, doc, msg)
		}
	}
}

// The separator-driven library splitters are cut independent.
func TestIsLocalLibrarySplitters(t *testing.T) {
	for _, c := range []struct {
		name string
		s    *core.Splitter
	}{
		{"sentences", library.Sentences()},
		{"paragraphs", library.Paragraphs()},
		{"tokens", library.Tokens()},
		{"http-requests", library.HTTPRequests()},
	} {
		assertCutIndependent(t, c.name, c.s)
	}
}

// Splitters outside the library that the procedure proves, each with the
// reason the proof goes through.
func TestIsLocalDegenerate(t *testing.T) {
	for _, src := range []string{
		// Matches only the empty document.
		"(x{})",
		// The first '.'-free block only: one span per document.
		"(x{[^.]*})(\\.[^.]*)*",
		// The whole document when it is all a's and b's. Any other byte
		// kills the run that opened at the start, but the span exists only
		// at the document's end, so the one chunk is the document.
		"(x{(a|b)*})",
		// Space-separated words without a 'q'. A 'q' kills the run that
		// opened its word, which has emitted nothing yet, and the next word
		// opens after a space whatever came before it.
		"(x{[^q ]+})([ ].*)?|.*[ ](x{[^q ]+})([ ].*)?",
	} {
		assertCutIndependent(t, src, mustSplitter(t, src))
	}
}

// nonLocal lists splitters IsLocal refuses. Each disjoint one carries a
// witness, a document and spans i..j of S(doc) whose chunk segments into
// something else, so no refusal is the procedure being merely cautious.
var nonLocal = []struct {
	name, src string
	disjoint  bool
	doc       string
	i, j      int
}{
	// Blocks that count only on documents ending in '!': no close can
	// commit, so the scanner bails (right cut).
	{"suffix-conditioned", "(x{[^.!]*})(\\.[^.!]*)*!|[^.!]*(\\.[^.!]*)*\\.(x{[^.!]*})(\\.[^.!]*)*!", true, "ab.cd!", 0, 0},
	// Every '.'-separated block except the first: a chunk drops its own
	// first block (left cut).
	{"all-but-first-block", "[^.]*\\.([^.]*\\.)*(x{[^.]*})(\\.[^.]*)*", true, "a.b.c", 0, 0},
	// A sentence counts only once its '.' has been read: the close needs
	// one more byte than the span, and the cut takes it away (right cut).
	{"close-needs-next-byte", "(x{[^.]*})\\..*|.*\\.(x{[^.]*})\\..*", true, "ab.cd", 0, 0},
	// The same for an empty span marking each '.', the engine's marking
	// pair: the chunk holding a mark is the empty string (right cut).
	{"wrap-needs-next-byte", ".*(x{})\\..*", true, "a.b", 0, 0},
	// Words, plus an empty span at the end of a document that does not end
	// in '.': where a word closes, a shorter document has two spans (right
	// cut).
	{"end-wrap-at-a-close", "(x{[^.]+})(\\..*)?|.*\\.(x{[^.]+})(\\..*)?|(.*[^.])?(x{})", true, "ab.c", 0, 0},
	// One 'a' or a run of b's after any a's: on "aa" the last 'a' and the
	// empty span after it end together, and the chunk of the first holds
	// both (EOF rule).
	{"close-and-wrap-at-the-end", "a*(x{((a|a)|(b)*)})", true, "aa", 0, 0},
	// An empty span at the end of a document that ends in 'a': its chunk
	// is the empty string, which has none (left cut, at the end).
	{"wrap-at-the-end", ".*a(x{})", true, "ba", 0, 0},
	// 2-grams overlap; only disjoint splitters have a scanner.
	{"2-grams", "(x{[^ ]+ [^ ]+})( .*)?|.* (x{[^ ]+ [^ ]+})( .*)?", false, "", 0, 0},
}

func TestIsLocalKnownNonLocal(t *testing.T) {
	for _, c := range nonLocal {
		s := mustSplitter(t, c.src)
		if got := s.IsDisjoint(); got != c.disjoint {
			t.Fatalf("%s: IsDisjoint = %v, want %v", c.name, got, c.disjoint)
		}
		ok, err := s.IsLocal(0)
		if err != nil {
			t.Fatalf("%s: IsLocal: %v", c.name, err)
		}
		if ok {
			t.Errorf("%s: IsLocal = true, but the splitter is not cut independent", c.name)
		}
	}
}

// The refusals are not caution: on each witness the chunk really does
// segment differently — the mis-extraction a "local" verdict would let
// the chunked route and streaming commit.
func TestNonLocalSplitterActuallyDiverges(t *testing.T) {
	for _, c := range nonLocal {
		if !c.disjoint {
			continue
		}
		s := mustSplitter(t, c.src)
		if n := len(s.SplitReference(c.doc)); c.j >= n {
			t.Fatalf("%s: S(%q) has %d spans; the witness is stale", c.name, c.doc, n)
		}
		if got, want := cutChunk(s, c.doc, c.i, c.j); slices.Equal(got, want) {
			t.Errorf("%s: the chunk of spans %d..%d of %q segments into %v as it should; the witness is stale",
				c.name, c.i, c.j, c.doc, got)
		}
	}
}

// A starved budget must surface as automata.ErrTooLarge (verdict
// unknown), never as a false "local". The smallest sufficient budgets are
// pinned: the larger of the scanner states the closure reaches and the
// state pairs the left-cut walk visits.
func TestIsLocalStateLimit(t *testing.T) {
	for _, c := range []struct {
		name string
		mk   func() *core.Splitter
		need int
	}{
		{"sentences", library.Sentences, 4},
		{"paragraphs", library.Paragraphs, 4},
		{"tokens", library.Tokens, 6},
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

// The right cut and the EOF rule on their own: yes for the library
// splitters and the degenerate ones, and no for the three splitters whose
// refusal is the right cut's, each with the document where a cut at a span
// end goes wrong.
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
		{"close-needs-next-byte", "(x{[^.]*})\\..*|.*\\.(x{[^.]*})\\..*", "ab.cd", 1, 3, 0},
		{"wrap-needs-next-byte", ".*(x{})\\..*", "a.b", 2, 2, 0},
		{"end-wrap-at-a-close", "(x{[^.]+})(\\..*)?|.*\\.(x{[^.]+})(\\..*)?|(.*[^.])?(x{})", "ab.c", 1, 3, 2},
		{"close-and-wrap-at-the-end", "a*(x{((a|a)|(b)*)})", "aa", 2, 3, 2},
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

// TestCutFinderLibraryTable pins DESIGN.md's table ("Grain"): K, the
// scanner states the cut finder steps together, and the bytes on which
// they all step to one state, for each library splitter.
func TestCutFinderLibraryTable(t *testing.T) {
	for _, c := range []struct {
		name string
		s    *core.Splitter
		k    int
		sync string
	}{
		{"sentences", library.Sentences(), 4, "\n!.?"},
		{"paragraphs", library.Paragraphs(), 4, "\n"},
		{"tokens", library.Tokens(), 6, "\n "},
		{"http-requests", library.HTTPRequests(), 4, ";"},
	} {
		if k, sync := c.s.CutStates(), string(c.s.SyncBytes()); k != c.k || sync != c.sync {
			t.Errorf("%s: K = %d, sync bytes %q; want %d and %q", c.name, k, sync, c.k, c.sync)
		}
	}
	if k := library.NGrams(2).CutStates(); k != 0 {
		t.Errorf("2-grams: K = %d for a splitter that is not disjoint", k)
	}
}
