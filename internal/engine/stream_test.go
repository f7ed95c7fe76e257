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
	"repro/internal/regexformula"
)

// collectChunks runs the segmenter over doc in chunks of size n (through
// chunkedSegments' recycled read buffer): one segment per feed that
// committed spans.
func collectChunks(t *testing.T, s *core.Splitter, doc string, n int) []parallel.Segment {
	t.Helper()
	segs, _ := chunkedSegments(t, s, doc, n)
	return segs
}

// newTestSegmenter builds the engine's segmenter outside an engine (no
// metrics), as RunReader does for a plan that streams.
func newTestSegmenter(t testing.TB, s *core.Splitter) *scanSegmenter {
	t.Helper()
	run, ok := s.NewScanRun()
	if !ok {
		t.Fatalf("splitter has no compiled scanner")
	}
	return &scanSegmenter{run: run}
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
		g.feed([]byte("a sentence here. "))
	}
	if g.buffered() > 64 {
		t.Fatalf("buffer grew to %d bytes; anchor trimming is not working", g.buffered())
	}
	if g.run.Bailed() {
		t.Fatal("sentence scanner bailed")
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

// TestScanSegmenterChunkedBailKeepsTheRest drives the chunk grain into the
// one place the locality proof's closure keeps the engine out of: a
// scanner that bails. The evaluator behind this segmenter holds P, so the tail is
// not split: everything from the scanner's anchor on must come back from
// flush as the document's last chunk.
func TestScanSegmenterChunkedBailKeepsTheRest(t *testing.T) {
	s := suffixConditioned()
	if local, _ := s.IsLocal(0); local {
		t.Fatal("the suffix-conditioned splitter must not be local")
	}
	for _, doc := range []string{"ab.cd.ef!", "ab.cd", "a.b.c.d.e!"} {
		for n := 1; n <= len(doc)+1; n++ {
			got := collectChunks(t, s, doc, n)
			if len(got) != 1 || got[0].Span.Start != 1 || got[0].Text != doc {
				t.Fatalf("doc %q read %d: chunks %v, want the whole document from the anchor", doc, n, got)
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
		if st := e.Stats(); st.StreamedDocs != 1 || st.Segmenter.Bails != 0 {
			t.Fatalf("chunk=%d: stats = %+v, want one streamed document on the scanner path", n, st.Segmenter)
		}
	}
}

// TestSegmenterStandDownCounted: a streamed document whose prefix puts
// a sentence separator every third byte — 2 000 jumps gaining 3 bytes
// each, far more than one 32-jump yield window — before a separator-free
// tail stands its scanner's skip gate down, and the segmenter counts it
// once. Review documents like the ledger's never stand it down.
func TestSegmenterStandDownCounted(t *testing.T) {
	for _, tc := range []struct {
		name string
		doc  string
		want uint64
	}{
		{"dense prefix, sparse tail", strings.Repeat("x", 40) + strings.Repeat("ab.", 2000) + strings.Repeat("y", 64<<10), 1},
		{"sparse only", strings.Repeat("x", 40) + strings.Repeat("y", 64<<10), 0},
		{"reviews, 256 KiB", reviewDoc(2, 256<<10), 0},
		{"reviews, 2 MiB", reviewDoc(1, 2<<20), 0},
	} {
		e := New(Config{Workers: 2})
		if _, err := e.ExtractReader(context.Background(), reviewPlan(), strings.NewReader(tc.doc)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st := e.Stats(); st.StreamedDocs != 1 || st.Segmenter.StandDowns != tc.want {
			t.Fatalf("%s: %d streamed, %d stand-downs; want 1 and %d", tc.name, st.StreamedDocs, st.Segmenter.StandDowns, tc.want)
		}
	}
}

// suffixConditioned is the splitter of the bail tests here: sentence-like
// blocks that exist only on documents ending in '!', so its scanner bails
// at the first separator.
func suffixConditioned() *core.Splitter {
	return core.MustSplitter(regexformula.MustCompile(
		"(x{[^.!]*})(\\.[^.!]*)*!|[^.!]*(\\.[^.!]*)*\\.(x{[^.!]*})(\\.[^.!]*)*!"))
}

// TestBailedCarryOverIsBounded: a bail turns the rest of the document into
// carry-over, and the carry-over is what Config.MaxDocBuffer bounds. The
// segmenter reports every byte it holds from the anchor on. Through the
// engine — a plan over it with a forged locality verdict but no split
// verdict does not run chunked, so it buffers — a 1 MiB document under a
// 64 KiB budget fails with the typed ErrDocTooLarge instead of being
// buffered whole.
func TestBailedCarryOverIsBounded(t *testing.T) {
	s := suffixConditioned()
	doc := strings.Repeat("ab.cd.", 1<<20/6) + "ef!"
	g := newTestSegmenter(t, s)
	for lo := 0; lo < len(doc); lo += 64 << 10 {
		if segs := g.feed([]byte(doc[lo:min(lo+64<<10, len(doc))])); len(segs) != 0 {
			t.Fatalf("a feed committed %d chunks of a splitter that cannot commit", len(segs))
		}
	}
	if !g.run.Bailed() || g.buffered() != len(doc) {
		t.Fatalf("bailed %v with %d of %d bytes buffered", g.run.Bailed(), g.buffered(), len(doc))
	}
	p := regexformula.MustCompile(emailFormula)
	plan := &Plan{
		p: p, ps: p, s: s,
		Strategy: StrategySplit,
		Verdicts: core.PlanVerdicts{Disjoint: core.VerdictYes, Local: core.VerdictYes},
	}
	e := New(Config{Workers: 2, MaxDocBuffer: 64 << 10})
	if e.WillStream(plan) {
		t.Fatal("a plan without a split verdict streams")
	}
	r := strings.NewReader(doc)
	if _, _, err := e.RunReader(context.Background(), plan, unsized{r}); !errors.Is(err, ErrDocTooLarge) {
		t.Fatalf("err %v, want ErrDocTooLarge", err)
	}
	if read := len(doc) - r.Len(); read > 4*64<<10 {
		t.Fatalf("read %d bytes: want the read stopped within a few reads of the budget", read)
	}
}
