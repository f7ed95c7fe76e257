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

// collectScan runs the segmenter over doc in chunks of size n (through
// chunkedSegments' recycled read buffer); collectChunks does the same at
// chunk grain, one segment per feed that committed spans.
func collectScan(t *testing.T, s *core.Splitter, doc string, n int) []parallel.Segment {
	t.Helper()
	segs, _ := chunkedSegments(t, s, doc, n, false)
	return segs
}

func collectChunks(t *testing.T, s *core.Splitter, doc string, n int) []parallel.Segment {
	t.Helper()
	segs, _ := chunkedSegments(t, s, doc, n, true)
	return segs
}

// newTestSegmenter builds the engine's segmenter outside an engine (no
// metrics), as RunReader does for a plan that streams.
func newTestSegmenter(t testing.TB, s *core.Splitter, chunks bool) *scanSegmenter {
	t.Helper()
	run, ok := s.NewScanRun()
	if !ok {
		t.Fatalf("splitter has no compiled scanner")
	}
	return &scanSegmenter{run: run, s: s, chunks: chunks}
}

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
		want := parallel.SegmentsOf(doc, s.Split(doc))
		for n := 1; n <= len(doc)+1; n++ {
			got := collectScan(t, s, doc, n)
			if len(got) != len(want) {
				t.Fatalf("doc %q chunk %d: %d segments, want %d (%v vs %v)", doc, n, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("doc %q chunk %d: segment %d = %+v, want %+v", doc, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestScanSegmenterCarryKeepsBufferSmall(t *testing.T) {
	g := newTestSegmenter(t, library.Sentences(), false)
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

func TestScanSegmenterBailSplitsTheTailWithoutDuplicates(t *testing.T) {
	// Blocks are valid only on documents ending in '!': the scanner can
	// never commit a close mid-document, so it bails at the first
	// separator and flush must split the tail from the anchor without
	// duplicating or dropping segments.
	s := suffixConditioned()
	if _, ok := s.NewScanRun(); !ok {
		t.Skip("splitter has no compiled scanner")
	}
	for _, doc := range []string{"ab.cd.ef!", "ab.cd", "!", "a.b.c.d.e!"} {
		want := parallel.SegmentsOf(doc, s.SplitReference(doc))
		for n := 1; n <= len(doc)+1; n++ {
			got := collectScan(t, s, doc, n)
			if len(got) != len(want) {
				t.Fatalf("doc %q chunk %d: %d segments, want %d (%v vs %v)", doc, n, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("doc %q chunk %d: segment %d = %+v, want %+v", doc, n, i, got[i], want[i])
				}
			}
		}
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
// one place CutSafe's closure check keeps the engine out of: a scanner
// that bails. The evaluator behind this segmenter holds P, so the tail is
// not split: everything from the scanner's anchor on must come back from
// flush as the document's last chunk.
func TestScanSegmenterChunkedBailKeepsTheRest(t *testing.T) {
	s := suffixConditioned()
	if s.CutSafe() {
		t.Fatal("the suffix-conditioned splitter must not be cut-safe")
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

// TestStreamedBailMidDocument is TestScanSegmenterBailSplitsTheTailWithoutDuplicates
// one layer up: the scanner bails at the first separator, the rest of the
// document is buffered from the anchor and split at the flush, and the
// streamed relation is still byte-identical to Eval on the whole document.
func TestStreamedBailMidDocument(t *testing.T) {
	s := suffixConditioned()
	p := regexformula.MustCompile(emailFormula)
	// Blocks exist only on documents ending in '!', so the splitter is
	// not local; the plan forges the verdict to stream it anyway, which is
	// sound here because a bailed segmenter holds everything until the
	// flush. The plan carries no split-correctness verdict, so its 11 KB
	// document is not evaluated whole and does meet the segmenter.
	plan := &Plan{
		p: p, ps: p, s: s,
		Strategy: StrategySplit,
		Verdicts: core.PlanVerdicts{Disjoint: core.VerdictYes, Local: core.VerdictYes},
	}
	doc := strings.Repeat("write to ann@example or bob@corp. then ping eve@host. ", 200) + "done!"
	want := p.Eval(doc)
	if want.Len() != 600 {
		t.Fatalf("Eval found %d tuples, want 600", want.Len())
	}
	for _, n := range []int{1, 7, 4096, 65536} {
		e := New(Config{Workers: 2, ChunkSize: n})
		got, err := e.ExtractReader(context.Background(), plan, &scribbleReader{s: doc, n: n})
		if err != nil {
			t.Fatalf("chunk=%d: %v", n, err)
		}
		if got.String() != want.String() {
			t.Fatalf("chunk=%d: streamed relation (%d tuples) differs from Eval (%d tuples)", n, got.Len(), want.Len())
		}
		if st := e.Stats(); st.Segmenter.Bails != 1 {
			t.Fatalf("chunk=%d: %d scanner bails, want 1", n, st.Segmenter.Bails)
		}
	}
}

// suffixConditioned is the splitter of the bail tests above: sentence-like
// blocks that exist only on documents ending in '!', so its scanner bails
// at the first separator.
func suffixConditioned() *core.Splitter {
	return core.MustSplitter(regexformula.MustCompile(
		"(x{[^.!]*})(\\.[^.!]*)*!|[^.!]*(\\.[^.!]*)*\\.(x{[^.!]*})(\\.[^.!]*)*!"))
}

// TestBailedCarryOverIsBounded: a bail turns the rest of the document into
// carry-over, and the carry-over is what Config.MaxDocBuffer bounds. At
// either grain the segmenter reports every byte it holds from the anchor
// on; through the engine (the per-segment grain — a splitter that bails is
// not cut-safe, so no plan over it is chunked) a 1 MiB document under a
// 64 KiB budget fails with the typed ErrDocTooLarge instead of being
// buffered whole.
func TestBailedCarryOverIsBounded(t *testing.T) {
	s := suffixConditioned()
	doc := strings.Repeat("ab.cd.", 1<<20/6) + "ef!"
	for _, chunks := range []bool{false, true} {
		g := newTestSegmenter(t, s, chunks)
		for lo := 0; lo < len(doc); lo += 64 << 10 {
			if segs := g.feed([]byte(doc[lo:min(lo+64<<10, len(doc))])); len(segs) != 0 {
				t.Fatalf("chunks=%v: a feed committed %d segments of a splitter that cannot commit", chunks, len(segs))
			}
		}
		if !g.run.Bailed() || g.buffered() != len(doc) {
			t.Fatalf("chunks=%v: bailed %v with %d of %d bytes buffered", chunks, g.run.Bailed(), g.buffered(), len(doc))
		}
	}
	p := regexformula.MustCompile(emailFormula)
	plan := &Plan{ // a forged locality verdict, as above
		p: p, ps: p, s: s,
		Strategy: StrategySplit,
		Verdicts: core.PlanVerdicts{Disjoint: core.VerdictYes, Local: core.VerdictYes},
	}
	e := New(Config{Workers: 2, MaxDocBuffer: 64 << 10})
	_, exec, err := e.RunReader(context.Background(), plan, strings.NewReader(doc))
	if !errors.Is(err, ErrDocTooLarge) || exec != ExecSplit {
		t.Fatalf("route %v, err %v; want ErrDocTooLarge on the streamed route", exec, err)
	}
	if st := e.Stats(); st.Segmenter.Bails != 1 || st.Bytes > 4*64<<10 {
		t.Fatalf("stats %+v: want one bail and the read stopped within a few feeds of the budget", st)
	}
}

// TestForgedDisjointPlanBuffers: WillStream trusts Verdicts.Disjoint, and
// only a plan built by hand can carry a yes the splitter does not back. Its
// splitter has no scanner, so RunReader buffers the stream and answers as
// Run does.
func TestForgedDisjointPlanBuffers(t *testing.T) {
	s := library.NGrams(2)
	if _, ok := s.NewScanRun(); ok || s.IsDisjoint() {
		t.Fatal("the 2-gram splitter must be non-disjoint and scanner-less")
	}
	p := regexformula.MustCompile(emailFormula)
	plan := &Plan{
		p: p, ps: p, s: s,
		Strategy: StrategySplit,
		Verdicts: core.PlanVerdicts{Disjoint: core.VerdictYes, Local: core.VerdictYes},
	}
	e := New(Config{Workers: 2, ChunkSize: 7})
	if !e.WillStream(plan) {
		t.Fatal("the forged verdicts must pass WillStream, or the test proves nothing")
	}
	doc := strings.Repeat(emailDoc+" ", 8)
	want, wantExec, err := e.Run(context.Background(), plan, doc)
	if err != nil || want.Len() == 0 {
		t.Fatalf("Run: %d tuples, err %v", want.Len(), err)
	}
	got, exec, err := e.RunReader(context.Background(), plan, &fixedChunkReader{s: doc, n: 7})
	if err != nil || exec != wantExec {
		t.Fatalf("RunReader took the %v route (err %v), Run took %v", exec, err, wantExec)
	}
	sameTuples(t, "RunReader vs Run", got, want)
	if st := e.Stats(); st.StreamedDocs != 0 || st.Documents != 2 {
		t.Fatalf("stats %+v: want two documents, neither streamed", st)
	}
}
