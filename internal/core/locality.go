package core

// This file decides *cut independence* of a splitter: for every document
// d and every chunk t = d[a:b) that starts where a span of S(d) starts
// and ends where one ends, S(t) is exactly the spans of S(d) that t
// covers, shifted. It is the one splitter property the engine's chunked
// route and streamed ingest ask for (DESIGN.md, "Grain"): P(t) =
// (P_S ∘ S)(t) is then the chunk's share of (P_S ∘ S)(d) = P(d), so P
// may be evaluated once per run of segments instead of P_S once per
// segment. In the spirit of the paper's program of deciding splitter
// properties on the automaton (Doleschal et al., PODS 2019, Section 5),
// it is decided on the splitter's compiled scanner (splitscan.go), whose
// run on a document emits S(d) event by event.
//
// # The rules
//
// The procedure explores the scanner states reachable from start and
// checks, over them:
//
//	Right cut. No state raises evBail on any class, and every evClose or
//	  evWrap fires alone (never a close and a wrap at one boundary), in a
//	  state whose document-end events are exactly that one span. Cut the
//	  document at the event's boundary and the run ends in that state:
//	  Flush emits what the event emitted, nothing less (a close that
//	  needed the next byte) and nothing more (an empty span the longer
//	  document does not have there). So S(d[:b]) is the spans of S(d)
//	  that end at or before the cut.
//	EOF rule. No state has both endClose and endWrap, the right cut's
//	  "fires alone" at the document's end: otherwise a chunk ending at a
//	  nonempty span's end would also hold the empty span that follows it.
//	Left cut. For every state X and class c on which X fires evOpen or
//	  evWrap — a span starts at this boundary — start fires the same
//	  open and wrap bits on c, and from the pair (X·c, start·c) every
//	  reachable pair of states agrees on the events of every class and
//	  on both end flags. The run on d from a span start and the run on
//	  the chunk from start then raise the same events at the same
//	  offsets, so they emit the same spans, shifted. A state with
//	  endWrap (a span starts at the document's end) needs start to have
//	  endWrap too: that chunk is the empty string.
//
// Right cut first, then left cut, gives the lemma for every chunk. The
// closure also resolves every transition, so a scanner that passes can
// neither bail nor overflow on any document. The procedure is sound and
// deliberately incomplete: yes is a proof, no means no proof was found.
// FuzzCutIndependence (internal/engine) holds every yes to the lemma
// against SplitReference.

import (
	"fmt"

	"repro/internal/automata"
	"repro/internal/lazydfa"
)

// IsLocal reports whether the splitter is cut independent (see above):
// a chunk cut from a span start to a span end segments into exactly the
// spans of the document it covers. Only disjoint splitters have a
// scanner, so a non-disjoint splitter answers false. The procedure is
// sound and incomplete: true is a proof, false means no proof was found.
// limit bounds the scanner states and the left-cut pairs explored (≤ 0
// selects automata.DefaultLimit); past it, or past the scanner's own
// state bound, IsLocal fails with automata.ErrTooLarge, and callers
// should treat the verdict as unknown.
func (s *Splitter) IsLocal(limit int) (bool, error) {
	sc := s.scanner()
	if sc == nil {
		return false, nil
	}
	if limit <= 0 {
		limit = automata.DefaultLimit
	}
	reach, err := sc.rightCut(limit)
	if err != nil || reach == nil {
		return false, err
	}
	return sc.leftCut(reach, limit)
}

var errCutTooLarge = fmt.Errorf("core: cut independence: %w", automata.ErrTooLarge)

// rightCut explores the scanner states reachable from start, resolving
// every transition, and returns them — or nil when one breaks the
// right-cut or the EOF rule.
func (sc *splitScanner) rightCut(limit int) ([]int32, error) {
	seen := map[int32]bool{sc.start: true}
	reach := []int32{sc.start}
	for i := 0; i < len(reach); i++ {
		q := reach[i]
		pl := sc.dfa.Snapshot()[q].Payload
		if pl.endClose && pl.endWrap {
			return nil, nil
		}
		for c := 0; c < sc.nclasses; c++ {
			ev := pl.ev[c]
			closes, wraps := ev&evClose != 0, ev&evWrap != 0
			if ev&evBail != 0 || closes && wraps ||
				(closes || wraps) && (pl.endClose != closes || pl.endWrap != wraps) {
				return nil, nil
			}
			t, _ := sc.dfa.Resolve(q, uint8(c))
			if t == lazydfa.Overflow {
				return nil, errCutTooLarge
			}
			if !seen[t] {
				if len(reach) >= limit {
					return nil, errCutTooLarge
				}
				seen[t] = true
				reach = append(reach, t)
			}
		}
	}
	return reach, nil
}

// leftCut runs the left-cut pair walk from every span start among the
// reachable states. Diagonal pairs agree trivially and step to diagonal
// pairs, so only off-diagonal pairs are walked.
func (sc *splitScanner) leftCut(reach []int32, limit int) (bool, error) {
	st := sc.dfa.Snapshot() // rightCut resolved every row read below
	start := &st[sc.start]
	type pair struct{ f, g int32 }
	seen := map[pair]bool{}
	var queue []pair
	push := func(f, g int32) error {
		p := pair{f, g}
		if f == g || seen[p] {
			return nil
		}
		if len(seen) >= limit {
			return errCutTooLarge
		}
		seen[p] = true
		queue = append(queue, p)
		return nil
	}
	const starts = evOpen | evWrap
	for _, x := range reach {
		pl := st[x].Payload
		if pl.endWrap && !start.Payload.endWrap {
			return false, nil
		}
		for c := 0; c < sc.nclasses; c++ {
			ev := pl.ev[c] & starts
			if ev == 0 {
				continue
			}
			if start.Payload.ev[c]&starts != ev {
				return false, nil
			}
			if err := push(st[x].Trans(uint8(c)), start.Trans(uint8(c))); err != nil {
				return false, err
			}
		}
	}
	for i := 0; i < len(queue); i++ {
		f, g := &st[queue[i].f], &st[queue[i].g]
		if f.Payload.endClose != g.Payload.endClose || f.Payload.endWrap != g.Payload.endWrap {
			return false, nil
		}
		for c := 0; c < sc.nclasses; c++ {
			if f.Payload.ev[c] != g.Payload.ev[c] {
				return false, nil
			}
			if err := push(f.Trans(uint8(c)), g.Trans(uint8(c))); err != nil {
				return false, err
			}
		}
	}
	return true, nil
}
