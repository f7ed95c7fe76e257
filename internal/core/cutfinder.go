package core

// This file is the cut finder of the engine's chunked route: cut
// independence (locality.go) lets a chunk run from any span start of S(d)
// to any span end, so each feed needs one exact span end near its end, not
// S(d). The K states of rightCut's closure, stepped together over the
// feed's last W bytes, keep the scan's true state among them; once they
// converge the state is exact, and a close from there on is a span end of
// S(d) (DESIGN.md, "Grain", has the lemma).

import (
	"slices"

	"repro/internal/automata"
	"repro/internal/lazydfa"
	"repro/internal/span"
)

const (
	syncWindow    = 512 // W: the bytes before a feed's end stepped together, ≈ 12 sentences
	maxSyncStates = 64  // the bound on K: a splitter with more steps every byte exactly
)

// cutStates memoizes rightCut's closure: nil for a splitter not cut safe.
func (s *Splitter) cutStates() []int32 {
	s.cutOnce.Do(func() {
		if sc := s.scanner(); sc != nil {
			s.reach, _ = sc.rightCut(automata.DefaultLimit)
		}
	})
	return s.reach
}

// CutStates returns K, the scanner states the cut finder steps together, or
// 0 when the splitter is not cut safe (every splitter IsLocal proves is).
func (s *Splitter) CutStates() int { return len(s.cutStates()) }

// CutFinder cuts one document, fed front to back, into the chunks of the
// chunked route: each runs from a span start of S(d) to a span end, they
// come in document order, and every span lies in exactly one.
type CutFinder struct {
	sc    *splitScanner
	st    []lazydfa.State[scanPayload] // holds every row of reach: rightCut resolved them
	reach []int32
	set   []int32 // the states stepped together

	q    int32 // the scan's exact state before byte pos
	pos  int
	pend int // 0-based boundary of the latest open since the last span end; -1 none
	end  int // 0-based last span end found; -1 none

	fallbacks int
	steps     int // state transitions: one per byte stepped exactly, up to K per byte stepped together
}

// NewCutFinder returns a finder at a document's start; ok=false when CutStates is 0.
func (s *Splitter) NewCutFinder() (*CutFinder, bool) {
	reach := s.cutStates()
	if reach == nil {
		return nil, false
	}
	sc := s.scanner()
	return &CutFinder{sc: sc, st: sc.dfa.Snapshot(), reach: reach, q: sc.start, pend: -1, end: -1}, true
}

// Cut advances the finder to the end of text, the document's bytes from
// 0-based offset off on, and returns the chunk those bytes end, if any.
// text starts at or before Keep and ends no earlier than the last call's;
// eof says it ends the document, whose last chunk Cut then returns.
func (f *CutFinder) Cut(text []byte, off int, eof bool) (span.Span, bool) {
	return cutTo(f, text, off, eof)
}

// Chunks cuts a whole document as if it arrived size bytes at a time.
func (f *CutFinder) Chunks(doc string, size int) []span.Span {
	var out []span.Span
	for n, eof := 0, false; !eof; {
		n = min(n+size, len(doc))
		eof = n == len(doc)
		if sp, ok := cutTo(f, doc[:n], 0, eof); ok {
			out = append(out, sp)
		}
	}
	return out
}

// Keep is the 0-based offset before which the finder reads no byte again
// and no chunk starts.
func (f *CutFinder) Keep() int {
	if f.pend >= 0 {
		return f.pend
	}
	return f.pos
}

// Fallbacks counts the calls whose last W bytes did not converge or held
// no span end, so that the finder stepped exactly from its last known
// state.
func (f *CutFinder) Fallbacks() int { return f.fallbacks }

func cutTo[T ~string | ~[]byte](f *CutFinder, text T, off int, eof bool) (span.Span, bool) {
	lo := off + len(text) - syncWindow
	missed := lo > f.pos // W new bytes: synchronize, or fall back
	if missed && len(f.reach) <= maxSyncStates {
		if sp, ok := syncTo(f, text, off, eof); ok {
			return sp, true
		}
	}
	first, last := scanCuts(f, text, off, eof, false)
	if last >= 0 {
		f.end = last
	}
	if missed || f.end < lo {
		f.fallbacks++
	}
	return span.Span{Start: first + 1, End: last + 1}, last >= 0
}

// syncTo cuts at the last span end after the K states converge in text's
// last W bytes, or reports false with the finder as it was.
func syncTo[T ~string | ~[]byte](f *CutFinder, text T, off int, eof bool) (span.Span, bool) {
	n := off + len(text)
	set, p := append(f.set[:0], f.reach...), n-syncWindow
	for ; len(set) > 1 && p < n; p++ {
		c := f.sc.classOf[text[p-off]]
		f.steps += len(set)
		k := 0
		for _, q := range set { // in place: set[k] is written after set[i ≥ k] is read
			if t := f.st[q].Trans(c); !slices.Contains(set[:k], t) {
				set[k], k = t, k+1
			}
		}
		set = set[:k]
	}
	f.set = set
	if len(set) > 1 {
		return span.Span{}, false
	}
	was := *f
	f.q, f.pos, f.pend = set[0], p, -1
	_, last := scanCuts(f, text, off, eof, false)
	synced := *f
	*f, f.steps = was, synced.steps
	if last < 0 {
		return span.Span{}, false
	}
	// The exact run from the last known state meets the converged one at
	// p, so its first span end is at or before last.
	first, _ := scanCuts(f, text, off, eof, true)
	synced.steps, synced.end = f.steps, last
	*f = synced
	return span.Span{Start: first + 1, End: last + 1}, true
}

// scanCuts steps the finder exactly from pos to the end of text — and at
// eof through the document-end events — and returns the start of the
// first span that ends on the way and the last span end, 0-based, or -1.
// With stop it returns past the byte of the first span end.
func scanCuts[T ~string | ~[]byte](f *CutFinder, text T, off int, eof, stop bool) (first, last int) {
	st, classOf, q, pend := f.st, &f.sc.classOf, f.q, f.pend
	first, last = -1, -1
	i, n := f.pos, off+len(text)
	for ; i < n && (last < 0 || !stop); i++ {
		s, c := &st[q], classOf[text[i-off]]
		if ev := s.Payload.ev[c]; ev != 0 {
			first, last, pend = spanEvents(ev, i, first, last, pend)
		}
		q = s.Trans(c)
	}
	if pl := st[q].Payload; eof && i == n && (last < 0 || !stop) {
		if pl.endClose {
			first, last, pend = spanEvents(evClose, n, first, last, pend)
		}
		if pl.endWrap {
			first, last, pend = spanEvents(evWrap, n, first, last, pend)
		}
	}
	f.steps += i - f.pos
	f.q, f.pos, f.pend = q, i, pend
	return first, last
}

// spanEvents applies the events at boundary b in ScanRun's order: a close
// ends the span opened at pend, or a wrap an empty one (never both:
// rightCut), then an open starts one.
func spanEvents(ev uint8, b, first, last, pend int) (int, int, int) {
	if ev&evWrap != 0 {
		pend = b
	}
	if ev&(evClose|evWrap) != 0 && first < 0 {
		first = pend
	}
	if ev&(evClose|evWrap) != 0 {
		last, pend = b, -1
	}
	if ev&evOpen != 0 {
		pend = b
	}
	return first, last, pend
}
