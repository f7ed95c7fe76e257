package engine

import (
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/span"
)

// docSegmenter applies a splitter incrementally to a document arriving
// as chunks, so that segments are dispatched to the work-stealing
// split-evaluation executor while the rest of the document is still
// being read. Two implementations exist:
//
//   - scanSegmenter, the default: the splitter's compiled one-pass
//     scanner (core.ScanRun) consumes each chunk exactly once, resuming
//     from a saved DFA state — O(n) total segmentation work;
//   - segmenter, the fallback: re-runs Split on the buffered suffix
//     after each chunk — O(buffer × chunks) worst case. Used when the
//     splitter has no compiled scanner and from the point where a
//     scanner bails mid-document.
//
// buffered reports the retained carry-over in bytes, for the
// Config.MaxDocBuffer bound.
type docSegmenter interface {
	feed(chunk []byte) []parallel.Segment
	flush() []parallel.Segment
	buffered() int
}

// newDocSegmenter picks the scanner-backed segmenter when the plan's
// splitter compiled one (every disjoint splitter the scanner's
// committed-emission analysis covers), the re-splitting fallback
// otherwise. Both are licensed by the same streaming precondition
// (WillStream): disjointness plus proven or asserted locality. chunks
// selects the chunked route's grain (see chunked, which implies a
// scanner): one segment per feed, covering all the spans it committed.
func (e *Engine) newDocSegmenter(plan *Plan, chunks bool) docSegmenter {
	if g, ok := newScanSegmenter(plan.s, e.m); ok {
		g.chunks = chunks
		return g
	}
	g := newSegmenter(plan.s)
	g.m = e.m
	return g
}

// scanSegmenter segments a chunked document on the splitter's compiled
// incremental scanner. Each chunk is consumed exactly once; the
// cross-chunk state is the scanner's DFA state id plus the pending-open
// boundary. The buffer retains only the suffix from the scanner's
// Anchor — the start of the last span event — which is exactly what a
// bail fallback needs: an open/wrap boundary is a genuine span start,
// so restarting the re-splitting segmenter there is licensed by the
// same locality property the buffered cut uses. Spans the scanner
// already committed are filtered out of the fallback's output by
// document order.
//
// With chunks set the unit of output is the feed, not the span: emit
// returns one segment reaching from the feed's first committed span to
// its last, to be evaluated with P (cut independence makes it a document
// in its own right; see chunked). There is then no per-segment evaluator
// to hand a fallback's segments to, so a bail — which CutSafe's closure
// over the scanner's states leaves to broken invariants only — keeps
// buffering from Anchor and flush returns the rest of the document as its
// last chunk. That chunk starts at a span start, so P on it is again
// (P_S ∘ S) on it, and tuples from spans an earlier chunk already covered
// are duplicates the merge removes.
type scanSegmenter struct {
	run    *core.ScanRun
	s      *core.Splitter
	m      *Metrics
	chunks bool

	buf []byte // retained document suffix, starting at global offset off
	off int    // 0-based global byte offset of buf[0]

	last  span.Span   // last span emitted by the scanner (fallback dedupe)
	fb    *segmenter  // non-nil once the scanner bailed
	spans []span.Span // scratch for ScanRun.Feed/Flush
}

// newScanSegmenter returns ok=false when the splitter has no compiled
// scanner (it is not disjoint, or its shape defeated the committed-
// emission analysis outright).
func newScanSegmenter(s *core.Splitter, m *Metrics) (*scanSegmenter, bool) {
	run, ok := s.NewScanRun()
	if !ok {
		return nil, false
	}
	return &scanSegmenter{run: run, s: s, m: m}, true
}

func (g *scanSegmenter) buffered() int {
	if g.fb != nil {
		return g.fb.buffered()
	}
	return len(g.buf)
}

// emit materializes scanner spans (absolute document coordinates, and —
// the scanner enforces it — disjoint and in document order) as segments.
// The bytes from the first span's start to the last one's end are
// converted to a string once — an immutable copy, since buf is compacted
// in place right after — and every segment's Text is a substring of it,
// so a feed costs one allocation for its text, not one per segment.
func (g *scanSegmenter) emit(spans []span.Span) []parallel.Segment {
	if len(spans) == 0 {
		return nil
	}
	lo, hi := spans[0].Start, spans[len(spans)-1].End
	text := string(g.buf[lo-1-g.off : hi-1-g.off])
	g.last = spans[len(spans)-1]
	if g.chunks {
		if g.m != nil {
			g.m.segments.Add(uint64(len(spans)))
		}
		return []parallel.Segment{{Span: span.Span{Start: lo, End: hi}, Text: text}}
	}
	out := make([]parallel.Segment, len(spans))
	for i, sp := range spans {
		out[i] = parallel.Segment{Span: sp, Text: text[sp.Start-lo : sp.End-lo]}
	}
	return out
}

// filter drops fallback segments the scanner already emitted: the
// fallback restarts at Anchor, which can sit at the start of the last
// committed span, so its first Split may re-derive spans at or before
// g.last in document order.
func (g *scanSegmenter) filter(segs []parallel.Segment) []parallel.Segment {
	if g.last.Start == 0 {
		return segs
	}
	out := segs[:0]
	for _, s := range segs {
		if s.Span.Start < g.last.Start || (s.Span.Start == g.last.Start && s.Span.End <= g.last.End) {
			continue
		}
		out = append(out, s)
	}
	return out
}

// bail hands the stream over to the re-splitting fallback, seeded with
// the retained suffix from the scanner's Anchor. On the chunked route it
// hands nothing over: the buffer keeps growing from Anchor until flush.
func (g *scanSegmenter) bail() {
	if g.m != nil {
		g.m.segBails.Inc()
	}
	if g.chunks {
		return
	}
	anchor := g.run.Anchor()
	fb := newSegmenter(g.s)
	fb.m = g.m
	fb.off = anchor
	fb.buf = append(fb.buf, g.buf[anchor-g.off:]...)
	fb.fresh = len(fb.buf)
	g.fb = fb
	g.buf = nil
}

func (g *scanSegmenter) feed(chunk []byte) []parallel.Segment {
	if g.fb != nil {
		return g.filter(g.fb.feed(chunk))
	}
	g.buf = append(g.buf, chunk...)
	if g.run.Bailed() {
		return nil // chunked route: the rest of the document is flush's last chunk
	}
	if g.m != nil {
		g.m.segResumed.Inc()
	}
	spans, ok := g.run.Feed(chunk, g.spans[:0])
	out := g.emit(spans)
	g.spans = spans
	if !ok {
		g.bail()
		if g.fb != nil {
			return append(out, g.filter(g.fb.feed(nil))...)
		}
	}
	if cut := g.run.Anchor() - g.off; cut > 0 {
		g.off += cut
		n := copy(g.buf, g.buf[cut:])
		g.buf = g.buf[:n]
	}
	return out
}

func (g *scanSegmenter) flush() []parallel.Segment {
	if g.fb != nil {
		return g.filter(g.fb.flush())
	}
	bailed := g.run.Bailed()
	spans, ok := g.run.Flush(g.spans[:0])
	out := g.emit(spans)
	g.spans = spans
	if !ok {
		if !bailed {
			g.bail()
		}
		if g.fb != nil {
			out = append(out, g.filter(g.fb.flush())...)
		} else {
			rest := span.Span{Start: g.run.Anchor() + 1, End: g.off + len(g.buf) + 1}
			out = append(out, parallel.Segment{Span: rest, Text: string(g.buf[rest.Start-1-g.off:])})
		}
	}
	g.buf = g.buf[:0]
	return out
}

// segmenter is the re-splitting fallback: keep a buffer of the
// not-yet-segmented suffix of the document, run the splitter on the
// whole buffer after each chunk, emit every segment except the last
// (which more input could still extend), and cut the buffer down to the
// held segment's start.
//
// Soundness requires the splitter to be disjoint and local: emitted
// segments must survive any extension of the document, and the
// segmentation of the retained suffix must equal the tail of the
// whole-document segmentation. Whether a disjoint splitter has this
// property is decided on its automaton by core.Splitter.IsLocal; the
// engine computes that verdict at plan compilation and streams
// automatically when it is yes, buffering otherwise.
// Config.StreamIncremental force-overrides a "no"/unknown verdict — the
// operator's unsafe assertion of locality — and a caller that forces a
// genuinely non-local splitter gets the same guarantee ParallelEval
// gives a non-split-correct plan: none. See internal/core/locality.go
// for the decision procedure and the exact property it certifies.
type segmenter struct {
	s   *core.Splitter
	m   *Metrics // nil outside the engine (unit tests)
	buf []byte
	off int // 0-based global byte offset of buf[0]
	// fresh counts buffer bytes the splitter has not seen yet; everything
	// else a Split call scans is a re-scan, charged to the rescanned-
	// bytes counter. The compiled scanner path never re-scans — this
	// counter measures exactly the work the fallback pays over it.
	fresh int
	// minSplit defers the next splitter run until the buffer reaches
	// this length. It doubles whenever a run finds no stable segment, so
	// on input whose segments are much larger than the chunk size the
	// splitter runs on buffer lengths c, 2c, 4c, … — amortized linear
	// total work instead of one full re-scan per chunk. This heuristic
	// (and the O(buffer × chunks) behavior it mitigates) is why the
	// fallback only serves scanner-less splitters and post-bail suffixes;
	// the common path segments in one pass without it.
	minSplit int
}

func newSegmenter(s *core.Splitter) *segmenter {
	return &segmenter{s: s}
}

func (g *segmenter) buffered() int { return len(g.buf) }

// shiftAll converts buffer-relative spans into global document segments.
func (g *segmenter) emit(spans []span.Span) []parallel.Segment {
	if len(spans) == 0 {
		return nil
	}
	doc := string(g.buf)
	by := span.Span{Start: g.off + 1, End: g.off + 1}
	out := make([]parallel.Segment, len(spans))
	for i, sp := range spans {
		out[i] = parallel.Segment{Span: sp.Shift(by), Text: sp.In(doc)}
	}
	return out
}

// split runs the splitter over the whole buffer, charging the re-scanned
// prefix to the metrics.
func (g *segmenter) split() []span.Span {
	if g.m != nil && len(g.buf) > g.fresh {
		g.m.segRescanned.Add(uint64(len(g.buf) - g.fresh))
	}
	g.fresh = 0
	return g.s.Split(string(g.buf))
}

// feed appends a chunk and returns the segments that became stable.
func (g *segmenter) feed(chunk []byte) []parallel.Segment {
	g.buf = append(g.buf, chunk...)
	g.fresh += len(chunk)
	if len(g.buf) < g.minSplit {
		return nil
	}
	spans := g.split()
	if len(spans) < 2 {
		// Zero or one segment: the single segment may still grow; hold
		// everything and back off until the buffer has doubled.
		g.minSplit = 2 * len(g.buf)
		return nil
	}
	g.minSplit = 0
	held := spans[len(spans)-1]
	out := g.emit(spans[:len(spans)-1])
	// Cut the buffer down to the held segment's start. Disjointness
	// guarantees every emitted span ends at or before held.Start, so no
	// emitted text is needed again; locality (proven by the plan's
	// verdict, or asserted via StreamIncremental) guarantees the
	// splitter never needs the bytes before a segment start to segment
	// the suffix.
	cut := held.Start - 1
	g.off += cut
	n := copy(g.buf, g.buf[cut:])
	g.buf = g.buf[:n]
	return out
}

// flush ends the stream: the splitter runs once more on the remaining
// buffer and every remaining segment is emitted. On an empty stream this
// yields exactly S("") — e.g. one empty segment for sentence-like
// splitters — matching one-shot evaluation of the empty document.
func (g *segmenter) flush() []parallel.Segment {
	out := g.emit(g.split())
	g.buf = g.buf[:0]
	return out
}
