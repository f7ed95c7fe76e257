package engine

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/library"
	"repro/internal/parallel"
)

// collectChunks runs the segmenter over doc in chunks of size n (through
// chunkedSegments' recycled read buffer): one segment per feed that
// committed spans.
func collectChunks(t *testing.T, s *core.Splitter, doc string, n int) []parallel.Segment {
	t.Helper()
	segs, _ := chunkedSegments(t, s, doc, n)
	return segs
}

// newTestSegmenter builds the engine's segmenter outside an engine, as
// Answer does for a stream of a plan that streams.
func newTestSegmenter(t testing.TB, s *core.Splitter) *cutSegmenter {
	t.Helper()
	f, ok := s.NewCutFinder()
	if !ok {
		t.Fatalf("splitter has no cut finder")
	}
	return &cutSegmenter{f: f}
}

// TestScanSegmenterMatchesOneShotSplit: the scanner run the segmenter
// feeds commits exactly the one-shot S(d) at every read size.
func TestScanSegmenterMatchesOneShotSplit(t *testing.T) {
	docs := []string{
		"",
		".",
		"no terminator at all",
		"one. two! three? four\nfive.",
		"trailing terminator.",
		"..!!..",
		"a.b.c.d.e.f.g.h",
	}
	s := library.Sentences()
	for _, doc := range docs {
		for n := 1; n <= len(doc)+1; n++ {
			if err := checkScanRun(t, s, doc, n, s.Split(doc)); err != nil {
				t.Fatalf("doc %q: %v", doc, err)
			}
		}
	}
}

func TestScanSegmenterCarryKeepsBufferSmall(t *testing.T) {
	g := newTestSegmenter(t, library.Sentences())
	for i := 0; i < 100; i++ {
		g.feed([]byte("a sentence here. "), false)
	}
	if len(g.buf) > 64 {
		t.Fatalf("buffer grew to %d bytes; trimming to the finder's Keep is not working", len(g.buf))
	}
}

// TestScanSegmenterChunksCoverEverySpan pins the chunk grain's geometry
// at every read size: a chunk's text is the document between its bounds,
// it starts at a span start and ends at a span end, chunks come in
// document order without overlapping, and every span of S(d) lies in
// exactly one — so the per-chunk relations partition (P_S ∘ S)(d).
func TestScanSegmenterChunksCoverEverySpan(t *testing.T) {
	s := library.Sentences()
	for _, doc := range []string{"", ".", "no terminator at all", "one. two! three? four\nfive.", "..!!..", "a.b.c.d.e.f.g.h"} {
		spans := s.Split(doc)
		for n := 1; n <= len(doc)+1; n++ {
			next := 0 // first span no chunk has covered yet
			for _, c := range collectChunks(t, s, doc, n) {
				if c.Text != c.Span.In(doc) {
					t.Fatalf("doc %q read %d: chunk %v carries %q", doc, n, c.Span, c.Text)
				}
				if next == len(spans) || c.Span.Start != spans[next].Start {
					t.Fatalf("doc %q read %d: chunk %v does not start at the next span of %v", doc, n, c.Span, spans[next:])
				}
				for next < len(spans) && spans[next].End <= c.Span.End {
					next++
				}
				if spans[next-1].End != c.Span.End {
					t.Fatalf("doc %q read %d: chunk %v does not end at a span end of %v", doc, n, c.Span, spans)
				}
			}
			if next != len(spans) {
				t.Fatalf("doc %q read %d: spans %v were never covered", doc, n, spans[next:])
			}
		}
	}
}

// scribbleReader serves s in reads of at most n bytes and, on every
// Read, first overwrites the whole buffer it was handed last time with
// sentence terminators — what a recycled read buffer does to anything
// that still aliases it.
type scribbleReader struct {
	s    string
	n    int
	last []byte
}

func (r *scribbleReader) Read(p []byte) (int, error) {
	for i := range r.last {
		r.last[i] = '!'
	}
	r.last = p
	if len(r.s) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(r.n, len(p))], r.s)
	r.s = r.s[n:]
	return n, nil
}

// TestStreamedSharedFeedText pins the aliasing contract of feed-granular
// text: every segment of a feed is a substring of one string converted
// from the carry-over buffer, which is then compacted in place while the
// read buffer behind it is reused. At chunk sizes from 1 byte to the
// default 64 KiB, on a document whose middle sentence is longer than two
// chunks (so it straddles at least three feeds), the streamed relation
// must be byte-identical to Eval on the whole document.
func TestStreamedSharedFeedText(t *testing.T) {
	neg := library.NegativeSentiment()
	for _, n := range []int{1, 7, 4096, 65536} {
		long := strings.Repeat("so bad weather ", (2*n+64)/15+1)
		doc := reviewDoc(uint64(n), 16<<10) + "\n" + long + ".\n" + reviewDoc(uint64(n)+1, 16<<10)
		want := neg.Eval(doc)
		e := New(Config{Workers: 2, ChunkSize: n})
		got, err := e.ExtractReader(context.Background(), reviewPlan(), &scribbleReader{s: doc, n: n})
		if err != nil {
			t.Fatalf("chunk=%d: %v", n, err)
		}
		if got.String() != want.String() {
			t.Fatalf("chunk=%d: streamed relation (%d tuples) differs from Eval (%d tuples)", n, got.Len(), want.Len())
		}
		if st := e.Stats(); st.StreamedDocs != 1 {
			t.Fatalf("chunk=%d: %d streamed documents, want 1", n, st.StreamedDocs)
		}
	}
}

// TestBailedCarryOverIsBounded: the carry-over — the span still open — is
// what Config.MaxDocBuffer bounds. A proven-local splitter over a document
// with no terminator cuts nothing, and the segmenter holds every byte.
// Through the engine a 1 MiB such document under a 64 KiB budget fails
// with the typed ErrDocTooLarge within a few reads of the budget instead
// of being buffered whole.
func TestBailedCarryOverIsBounded(t *testing.T) {
	doc := strings.Repeat("so bad weather ", 1<<20/15+1)[:1<<20]
	g := newTestSegmenter(t, library.Sentences())
	for lo := 0; lo < len(doc); lo += 64 << 10 {
		if segs := g.feed([]byte(doc[lo:min(lo+64<<10, len(doc))]), false); len(segs) != 0 {
			t.Fatalf("a feed cut %d chunks of a document without a span end", len(segs))
		}
	}
	if len(g.buf) != len(doc) {
		t.Fatalf("%d of %d bytes buffered", len(g.buf), len(doc))
	}
	e := New(Config{Workers: 2, MaxDocBuffer: 64 << 10})
	if !e.WillStream(reviewPlan()) {
		t.Fatal("the review plan does not stream")
	}
	r := strings.NewReader(doc)
	if _, _, err := answer(context.Background(), e, reviewPlan(), "", unsized{r}); !errors.Is(err, ErrDocTooLarge) {
		t.Fatalf("err %v, want ErrDocTooLarge", err)
	}
	if read := len(doc) - r.Len(); read > 4*64<<10 {
		t.Fatalf("read %d bytes: want the read stopped within a few reads of the budget", read)
	}
}

// TestCutFinderFallbackIsCounted: a sentence with no terminator holds no
// span end in any window, so every feed past the first window falls back
// to stepping exactly from the last known state — at reads of 1 byte,
// where no feed outruns the known state, and of 64 KiB, where each feed
// first tries its window — and the engine counts it. The answer is still
// EvalReference's. (TestCutFinderFallbackIsLinear in internal/core holds
// the same documents to linear work.)
func TestCutFinderFallbackIsCounted(t *testing.T) {
	for _, size := range []int{256 << 10, 512 << 10} {
		doc := strings.Repeat("so bad weather ", size/15+1)[:size]
		want := reviewPlan().p.EvalReference(doc)
		for _, n := range []int{1, 64 << 10} {
			e := New(Config{Workers: 2})
			got, exec, err := answer(context.Background(), e, reviewPlan(), "", &fixedChunkReader{s: doc, n: n})
			if err != nil || exec != ExecChunked {
				t.Fatalf("reads of %d: streamed Answer took the %v route (err %v)", n, exec, err)
			}
			if got.String() != want.String() {
				t.Fatalf("reads of %d, %d bytes: %d tuples, EvalReference has %d", n, size, got.Len(), want.Len())
			}
			if st := e.Stats(); st.Segmenter.SyncFallbacks == 0 {
				t.Fatalf("reads of %d, %d bytes: stats = %+v, want the fallbacks counted", n, size, st.Segmenter)
			}
		}
	}
}
