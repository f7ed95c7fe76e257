package engine

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/regexformula"
	"repro/internal/reltest"
	"repro/internal/span"
)

// The chunked route rests on a lemma and on a route built on it, and the
// two fuzz targets here hold them separately. FuzzCutIndependence is the
// lemma, on the splitter alone and against the reference semantics:
// whenever IsLocal says yes, a chunk cut from a span start to a span end
// segments into exactly the spans it covers. FuzzChunkVsWhole is the
// route: what the engine returns for a chunked document, streamed and
// inline, equals EvalReference on the whole document. FuzzLocalityVsBuffered
// (locality_fuzz_test.go) holds the streamed route's scanner run and
// segmenter to S(d) under the same verdict.

// checkCutIndependence holds s to cut independence on doc: for every pair
// of spans i ≤ j of S(doc), S of the chunk from span i's start to span j's
// end is spans i..j, shifted — the first span's start, empty spans and the
// document's end included. Both sides are SplitReference, so nothing the
// scanner or the engine does is assumed.
func checkCutIndependence(t *testing.T, src string, s *core.Splitter, doc string) {
	t.Helper()
	spans := s.SplitReference(doc)
	for i := range spans {
		lo := spans[i].Start
		for j := i; j < len(spans); j++ {
			got := s.SplitReference(doc[lo-1 : spans[j].End-1])
			for k := range got {
				got[k] = got[k].Shift(span.Span{Start: lo, End: lo})
			}
			if !slices.Equal(got, spans[i:j+1]) {
				t.Fatalf("S(d[%d,%d⟩) = %v, want spans %d..%d of %v\nsplitter: %s\ndoc: %q",
					lo, spans[j].End, got, i, j, spans, src, doc)
			}
		}
	}
}

// cutIndependentSplitter compiles a fuzz-shaped splitter and reports
// whether the engine would chunk its documents: proven local.
func cutIndependentSplitter(mode uint8, c1, c2 byte, seed int64) (string, *core.Splitter, bool) {
	src := fuzzSplitterFormula(mode, c1, c2, seed)
	auto, err := regexformula.Compile(src)
	if err != nil || auto.Arity() != 1 {
		return src, nil, false
	}
	s, err := core.NewSplitter(auto)
	if err != nil {
		return src, nil, false
	}
	local, err := s.IsLocal(1 << 14)
	return src, s, err == nil && local
}

func FuzzCutIndependence(f *testing.F) {
	f.Add(uint8(0), byte(0), byte(1), int64(1), "one. two! three\nfour.")
	f.Add(uint8(0), byte(2), byte(2), int64(1), "!!a!!")
	f.Add(uint8(1), byte(4), byte(3), int64(2), "a b  c\nd ")
	f.Add(uint8(2), byte(1), byte(1), int64(3), "a;b;;c")
	f.Add(uint8(3), byte(0), byte(0), int64(4), "a.b.c.d")
	f.Add(uint8(5), byte(4), byte(4), int64(6), "a qb c")
	f.Add(uint8(6), byte(5), byte(6), int64(7), "abba\x00\xffb")
	f.Fuzz(func(t *testing.T, mode uint8, c1, c2 byte, seed int64, doc string) {
		if len(doc) > 96 { // every span pair is cut: quadratic in the spans
			doc = doc[:96]
		}
		if src, s, ok := cutIndependentSplitter(mode, c1, c2, seed); ok {
			checkCutIndependence(t, src, s, doc)
		}
	})
}

// TestCutIndependenceCorpusSmoke sweeps the generator families over fixed
// documents, so `go test` without -fuzz exercises the lemma and fails if
// the generator stops producing splitters the engine would chunk.
func TestCutIndependenceCorpusSmoke(t *testing.T) {
	docs := []string{"", ".", "!", "one. two! three\nfour.", "a b  c\nd ", "a;b;;c", "..!!..", "a qb c", strings.Repeat("word. ", 12)}
	qualified := 0
	for mode := uint8(0); mode < 7; mode++ {
		for _, c := range []byte{0, 1, 4} {
			src, s, ok := cutIndependentSplitter(mode, c, c+1, int64(mode)*31+int64(c))
			if !ok {
				continue
			}
			qualified++
			for _, doc := range docs {
				checkCutIndependence(t, src, s, doc)
			}
		}
	}
	if qualified < 6 {
		t.Fatalf("only %d fuzz-shape splitters are proven local; the generator lost its chunkable families", qualified)
	}
}

// FuzzChunkVsWhole holds the chunked route to the semantics three ways:
// Answer on a stream through a reader that scribbles over the buffer it
// handed out last (so a chunk that aliased a read buffer comes back
// changed), Answer on the document, and EvalReference on the whole document. The plans are executionCases':
// library pairs, and the explicit P_S ≠ P pair — on which a chunk
// evaluated with P_S instead of P loses every match that follows a
// terminator without a space. Documents are stretched past breakEven,
// where the route starts; grain picks the engine's ChunkSize, so inline
// documents are cut into one, a few and many chunks, and read the
// reader's read size, so streamed ones are cut everywhere else.
func FuzzChunkVsWhole(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint16(0), "so bad tea. fine day! bad luck\nbad")
	f.Add(uint8(1), uint8(1), uint8(1), uint16(9), "x.bad tea. a bad day.bad")
	f.Add(uint8(2), uint8(2), uint8(2), uint16(4096), "bad one\n\nbad two. bad three\n")
	f.Add(uint8(3), uint8(1), uint8(3), uint16(33), "write ann@example or bob@corp. eve@host!")
	f.Add(uint8(1), uint8(2), uint8(0), uint16(500), "bad \x00\xff.bad b")
	f.Add(uint8(0), uint8(0), uint8(1), uint16(3), "no terminator and no match")
	engines := []*Engine{New(Config{Workers: 2}), New(Config{Workers: 2, ChunkSize: 4096}), New(Config{Workers: 2, ChunkSize: 1000})}
	reads := []int{1, 7, 4096, 65536}
	cases := executionCases(f)
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, sel, grain, read uint8, extra uint16, doc string) {
		if doc == "" {
			t.Skip()
		}
		c, e := cases[int(sel)%len(cases)], engines[int(grain)%len(engines)]
		n := breakEven + int(extra)%2048 // EvalReference is ~0.5 µs a byte
		doc = strings.Repeat(doc, n/len(doc)+1)[:n]
		inline, exec, err := answer(ctx, e, c.plan, doc, nil)
		if err != nil || exec != ExecChunked {
			t.Fatalf("Answer took the %v route (err %v)", exec, err)
		}
		r := &scribbleReader{s: doc, n: reads[int(read)%len(reads)]}
		streamed, exec, err := answer(ctx, e, c.plan, "", r)
		if err != nil || exec != ExecChunked {
			t.Fatalf("reads of %d: streamed Answer took the %v route (err %v)", r.n, exec, err)
		}
		if d := reltest.ThreeWayDiff("streamed", streamed, "inline", inline, c.plan.p.EvalReference(doc)); d != "" {
			t.Fatalf("%s, %d bytes, chunk size %d, reads of %d:\n%s", c.name, n, e.cfg.ChunkSize, r.n, d)
		}
	})
}
