package engine

import (
	"repro/internal/core"
	"repro/internal/parallel"
)

// cutSegmenter cuts a document arriving as feeds into the chunks of the
// chunked route, so that each is dispatched to the split-evaluation
// executor while the rest of the document is still being read: each feed
// ends the chunk that runs to the last span end the splitter's cut finder
// (core.CutFinder) finds near its end. The buffer retains only the suffix
// from the finder's Keep. The engine builds a segmenter only for a plan
// that runs chunked, whose splitter's cut independence makes each chunk a
// document in its own right (see chunked).
type cutSegmenter struct {
	f *core.CutFinder

	buf []byte // retained document suffix, starting at global offset off
	off int    // 0-based global byte offset of buf[0]
}

// feed appends a chunk and returns the chunk of the route it ends, if any;
// with eof, the chunk ends the document. The chunk's text is an immutable
// copy, since buf is compacted in place right after and the read buffer
// behind chunk is reused.
func (g *cutSegmenter) feed(chunk []byte, eof bool) []parallel.Segment {
	g.buf = append(g.buf, chunk...)
	var out []parallel.Segment
	if sp, ok := g.f.Cut(g.buf, g.off, eof); ok {
		out = []parallel.Segment{{Span: sp, Text: string(g.buf[sp.Start-1-g.off : sp.End-1-g.off])}}
	}
	if cut := g.f.Keep() - g.off; cut > 0 {
		g.off += cut
		n := copy(g.buf, g.buf[cut:])
		g.buf = g.buf[:n]
	}
	return out
}
