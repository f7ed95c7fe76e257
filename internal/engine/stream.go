package engine

import (
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/span"
)

// scanSegmenter cuts a document arriving as chunks into the chunks of the
// chunked route, so that each is dispatched to the
// split-evaluation executor while the rest of the document is still being
// read. It runs the splitter's compiled one-pass scanner (core.ScanRun):
// each chunk is consumed exactly once, and the cross-chunk state is the
// scanner's DFA state id plus the pending-open boundary — O(n) total
// segmentation work. The buffer retains only the suffix from the scanner's
// Anchor, the start of the last span event.
//
// The unit of output is the feed: emit returns one segment reaching from
// the feed's first committed span to its last, to be evaluated with P. The
// engine builds a segmenter only for a plan that runs chunked — its
// splitter proven local, that is, cut independent — and cut independence
// makes such a segment a document in its own right (see chunked).
//
// The scanner can still bail mid-document (a close it cannot commit, a DFA
// state bound); the locality proof's closure rules that out short of a
// broken invariant, and this is the guard for one. The scanner stops, what it
// committed stays committed, feed keeps buffering from Anchor under the
// caller's Config.MaxDocBuffer check, and flush returns that tail as the
// document's last chunk. Anchor is an open/wrap boundary, a genuine span
// start, so P on the tail is again (P_S ∘ S) on it; tuples of a span an
// earlier chunk already covered are duplicates the merge removes.
type scanSegmenter struct {
	run *core.ScanRun
	m   *Metrics // nil outside the engine (unit tests)

	buf []byte // retained document suffix, starting at global offset off
	off int    // 0-based global byte offset of buf[0]

	spans []span.Span // scratch for ScanRun.Feed/Flush
}

// buffered reports the retained carry-over in bytes, for the
// Config.MaxDocBuffer bound.
func (g *scanSegmenter) buffered() int { return len(g.buf) }

// emit materializes scanner spans (absolute document coordinates, and —
// the scanner enforces it — disjoint and in document order) as one chunk
// from the first span's start to the last one's end. Its text is an
// immutable copy, since buf is compacted in place right after.
func (g *scanSegmenter) emit(spans []span.Span) []parallel.Segment {
	if len(spans) == 0 {
		return nil
	}
	if g.m != nil {
		g.m.segments.Add(uint64(len(spans)))
	}
	lo, hi := spans[0].Start, spans[len(spans)-1].End
	return []parallel.Segment{{Span: span.Span{Start: lo, End: hi}, Text: string(g.buf[lo-1-g.off : hi-1-g.off])}}
}

// feed appends a chunk and returns the chunk of spans it committed. Once
// the scanner has bailed it commits nothing more: the carry-over grows
// from Anchor until flush.
func (g *scanSegmenter) feed(chunk []byte) []parallel.Segment {
	g.buf = append(g.buf, chunk...)
	if g.run.Bailed() {
		return nil
	}
	if g.m != nil {
		g.m.segResumed.Inc()
	}
	spans, ok := g.run.Feed(chunk, g.spans[:0])
	out := g.emit(spans)
	g.spans = spans
	if !ok && g.m != nil {
		g.m.segBails.Inc()
	}
	if cut := g.run.Anchor() - g.off; cut > 0 {
		g.off += cut
		n := copy(g.buf, g.buf[cut:])
		g.buf = g.buf[:n]
	}
	return out
}

// flush ends the stream. A run that never bailed emits what the end of the
// document commits — on an empty stream exactly S(""), e.g. one empty
// segment for sentence-like splitters. A bailed one (here or in an earlier
// feed) leaves the tail from Anchor, which becomes the document's last
// chunk. A run whose skip gate stood down is counted here, once per
// document.
func (g *scanSegmenter) flush() []parallel.Segment {
	if g.m != nil && g.run.StoodDown() {
		g.m.segStandDowns.Inc()
	}
	bailed := g.run.Bailed()
	spans, ok := g.run.Flush(g.spans[:0])
	out := g.emit(spans)
	g.spans = spans
	if !ok {
		if !bailed && g.m != nil {
			g.m.segBails.Inc()
		}
		tail := span.Span{Start: g.run.Anchor() + 1, End: g.off + len(g.buf) + 1}
		out = append(out, parallel.Segment{Span: tail, Text: string(g.buf[tail.Start-1-g.off:])})
	}
	g.buf = g.buf[:0]
	return out
}
