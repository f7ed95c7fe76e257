package engine

import (
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/span"
)

// scanSegmenter applies a splitter incrementally to a document arriving
// as chunks, so that segments are dispatched to the work-stealing
// split-evaluation executor while the rest of the document is still
// being read. It runs the splitter's compiled one-pass scanner
// (core.ScanRun): each chunk is consumed exactly once, and the
// cross-chunk state is the scanner's DFA state id plus the pending-open
// boundary — O(n) total segmentation work. The buffer retains only the
// suffix from the scanner's Anchor, the start of the last span event.
//
// Soundness requires the splitter to be disjoint and local: emitted
// segments must survive any extension of the document, and the
// segmentation of a suffix that starts at a span start must equal the
// tail of the whole-document segmentation. Disjointness is what gives a
// splitter a scanner at all; locality is decided on its automaton by
// core.Splitter.IsLocal (internal/core/locality.go) at plan compilation,
// and the engine streams when that verdict is yes, buffering otherwise.
//
// With chunks set the unit of output is the feed, not the span: emit
// returns one segment reaching from the feed's first committed span to
// its last, to be evaluated with P (cut independence makes it a document
// in its own right; see chunked).
//
// A scanner can bail mid-document (a close it cannot commit, a DFA state
// bound; CutSafe's closure rules it out on the chunked route short of a
// broken invariant). There is one protocol for it, at either grain: the
// scanner stops, what it committed stays committed, feed keeps
// buffering from Anchor under the caller's Config.MaxDocBuffer check,
// and flush handles that tail once. Anchor is an open/wrap boundary, a
// genuine span start, so cutting the document there is licensed by the
// same locality property every other cut of this segmenter uses. A
// bailed document loses the overlap of evaluation with ingest from the
// bail on, and nothing else.
type scanSegmenter struct {
	run    *core.ScanRun
	s      *core.Splitter
	m      *Metrics // nil outside the engine (unit tests)
	chunks bool

	buf []byte // retained document suffix, starting at global offset off
	off int    // 0-based global byte offset of buf[0]

	last  span.Span   // last span the scanner committed (see flush)
	spans []span.Span // scratch for ScanRun.Feed/Flush
}

// buffered reports the retained carry-over in bytes, for the
// Config.MaxDocBuffer bound.
func (g *scanSegmenter) buffered() int { return len(g.buf) }

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

// feed appends a chunk and returns the segments it committed. Once the
// scanner has bailed it commits nothing more: the carry-over grows from
// Anchor until flush.
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

// flush ends the stream. A run that never bailed emits what the end of
// the document commits — on an empty stream exactly S(""), e.g. one
// empty segment for sentence-like splitters. A bailed one (here or in an
// earlier feed) leaves the tail from Anchor: at chunk grain it is the
// document's last chunk — it starts at a span start, so P on it is again
// (P_S ∘ S) on it, and tuples from spans an earlier chunk already
// covered are duplicates the merge removes; per segment it is split
// once, and since Anchor can sit at the start of the last committed
// span, spans at or before g.last in document order are dropped.
func (g *scanSegmenter) flush() []parallel.Segment {
	bailed := g.run.Bailed()
	spans, ok := g.run.Flush(g.spans[:0])
	out := g.emit(spans)
	g.spans = spans
	if !ok {
		if !bailed && g.m != nil {
			g.m.segBails.Inc()
		}
		tail := span.Span{Start: g.run.Anchor() + 1, End: g.off + len(g.buf) + 1}
		text := string(g.buf[tail.Start-1-g.off:])
		if g.chunks {
			out = append(out, parallel.Segment{Span: tail, Text: text})
		} else {
			for _, sp := range g.s.Split(text) {
				at := sp.Shift(tail)
				if at.Compare(g.last) > 0 {
					out = append(out, parallel.Segment{Span: at, Text: sp.In(text)})
				}
			}
		}
	}
	g.buf = g.buf[:0]
	return out
}
