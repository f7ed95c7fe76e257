package core

// This file implements the compiled splitter scanner: the third client
// of the internal/lazydfa subset-construction engine (after vsa's
// forward-scan and backward-narrowing DFAs). For a disjoint
// splitter it turns Split — previously a full Eval plus a relation sort
// — into a single left-to-right DFA pass that emits spans in document
// order as their closes commit, and the pass is resumable: a ScanRun
// carries (DFA state, pending-open boundary) across chunk boundaries,
// which segments a document fed in chunks in O(n) total work instead of
// re-splitting the retained buffer after every chunk.
//
// Soundness rests on commitment: the scanner only emits a span when its
// close (or wrap) enters a suffix-universal state — every extension of
// the document is then accepted, so the span is in S(d·u) for every
// suffix u, including the one actually streamed. Whenever one-pass
// emission cannot be decided locally the scanner bails and the caller
// falls back to the Eval-based reference path:
//
//   - a close or wrap into a non-suffix-universal (but useful) state:
//     whether the span is produced depends on the rest of the document;
//   - an open event while a previous open generation is still alive, or
//     a committed close while open runs survive: a single pending-open
//     scalar can no longer represent the frontier (for a disjoint
//     splitter both situations imply overlapping outputs, so on proven
//     inputs they occur only through the suffix-universality analysis'
//     bounded incompleteness);
//   - DFA state-bound overflow.
//
// Useless states (not reachable, or unable to reach acceptance) are
// excluded from subsets entirely, so runs that can never accept neither
// raise events nor cause spurious bails. Disjointness is required — it
// is what makes "all live opens share one boundary" an invariant — and
// is checked (IsDisjoint, exact) before the scanner is built.

import (
	"repro/internal/alphabet"
	"repro/internal/lazydfa"
	"repro/internal/span"
	"repro/internal/vsa"
)

// Split-event bits of one (subset, byte class) pair, evaluated when a
// byte of that class is consumed at boundary b (1-based: byte index+1).
const (
	evOpen  uint8 = 1 << iota // a span opens at b: pending ← b
	evClose                   // a committed close: emit [pending, b⟩
	evWrap                    // a committed empty span: emit [b, b⟩
	evBail                    // one-pass emission undecidable: fall back
)

// scanPayload is the per-DFA-state payload of the splitter scanner: the
// split events of every byte class, plus the document-end events (final
// operation sets of subset members) applied by ScanRun.Flush.
type scanPayload struct {
	ev       []uint8
	endClose bool // an open member accepts at the end: emit [pending, n+1⟩
	endWrap  bool // an unopened member wrap-accepts: emit [n+1, n+1⟩
}

// splitScanner is the compiled scanner of one disjoint splitter. Like
// every lazydfa client it is warmed lazily and shared: concurrent
// ScanRuns walk snapshots of one transition cache.
type splitScanner struct {
	classOf  [256]uint8
	nclasses int
	dfa      *lazydfa.DFA[scanPayload]
	start    int32
	noSkip   bool // honors DisablePrefilter (see internal/vsa/prefilter.go)
}

// scanner returns the compiled scanner, building it on first use, or
// nil when the splitter does not admit one (it is not disjoint).
func (s *Splitter) scanner() *splitScanner {
	s.scanOnce.Do(func() { s.scanVal = buildSplitScanner(s) })
	return s.scanVal
}

func buildSplitScanner(s *Splitter) *splitScanner {
	if !s.IsDisjoint() {
		return nil
	}
	a := s.auto
	st := s.statuses
	uni := a.SuffixUniversal()
	useful := a.Useful()
	classOf, reps := alphabet.ClassTable(a.Classes())
	nc := len(reps)
	n := len(a.States)

	// Compiled adjacency over byte classes, restricted to edges that can
	// belong to an accepting run: sources are useful, not-yet-closed
	// states (the only states subsets track — closed runs are committed
	// or bailed, never followed), targets are useful.
	type sedge struct {
		kind int
		to   int32
	}
	adj := make([][]sedge, n*nc)
	finClose := make([]bool, n) // open state accepting at doc end
	finWrap := make([]bool, n)  // unopened state wrap-accepting at doc end
	for q := 0; q < n; q++ {
		if !useful[q] || st[q] == 2 {
			continue
		}
		for _, e := range a.States[q].Edges {
			if !useful[e.To] {
				continue
			}
			kind := splitOpKind(e.Ops)
			for c, rep := range reps {
				if e.Class.Has(rep) {
					adj[q*nc+c] = append(adj[q*nc+c], sedge{kind, int32(e.To)})
				}
			}
		}
		for _, f := range a.States[q].Finals {
			switch splitOpKind(f) {
			case sClose:
				finClose[q] = true
			case sWrap:
				finWrap[q] = true
			}
		}
	}

	sc := &splitScanner{classOf: classOf, nclasses: nc, noSkip: a.PrefilterDisabled()}
	sc.dfa = lazydfa.New(lazydfa.Config[scanPayload]{
		Classes: nc,
		States:  n,
		Succ: func(q int32, c uint8, emit func(int32)) {
			for _, e := range adj[int(q)*nc+int(c)] {
				// Open and op-free edges keep the run tracked; close and
				// wrap targets (status 2) are resolved by events instead.
				if e.kind == sNone || e.kind == sOpen {
					emit(e.to)
				}
			}
		},
		Payload: func(set []int32) scanPayload {
			p := scanPayload{ev: make([]uint8, nc)}
			for c := 0; c < nc; c++ {
				var open, close, wrap, keep, bail bool
				for _, q := range set {
					for _, e := range adj[int(q)*nc+c] {
						switch e.kind {
						case sNone:
							if st[q] == 1 {
								keep = true // an open run survives this byte
							}
						case sOpen:
							open = true
						case sClose:
							if uni[e.to] {
								close = true
							} else {
								bail = true
							}
						case sWrap:
							if uni[e.to] {
								wrap = true
							} else {
								bail = true
							}
						}
					}
				}
				// A surviving open run forbids both starting a new
				// generation (two pending boundaries) and committing the
				// current one (a later close of the survivor would
				// overlap the emitted span).
				if keep && (open || close) {
					bail = true
				}
				var ev uint8
				if open {
					ev |= evOpen
				}
				if close {
					ev |= evClose
				}
				if wrap {
					ev |= evWrap
				}
				if bail {
					ev |= evBail
				}
				p.ev[c] = ev
			}
			for _, q := range set {
				if finClose[q] {
					p.endClose = true
				}
				if finWrap[q] {
					p.endWrap = true
				}
			}
			return p
		},
	})
	startSet := []int32{}
	if useful[a.Start] {
		startSet = append(startSet, int32(a.Start))
	}
	sc.start = sc.dfa.Intern(startSet)
	return sc
}

// skipSet builds the synchronized skip set around DFA state cur for the
// scan skip loop: trigger bytes are those whose class desynchronizes the
// set, leaves it, or raises a split event in some member. Every other
// byte maps the whole set to one event-free state, so a jump over a run
// of them changes neither the pending boundary nor the emitted spans,
// and the landing state is the sync state of the last skipped byte — the
// skip is byte-exact, never a semantic shortcut. Returns nil when cur
// cannot skip (no synchronized set, too many triggers, or an overflowed
// transition row).
func (sc *splitScanner) skipSet(cur int32) *lazydfa.SkipSet {
	st := sc.dfa.Snapshot()
	return vsa.BuildSkipSet(sc.nclasses, sc.classOf[:],
		func(q int32) bool { return q > lazydfa.Dead },
		func(q int32, c uint8) bool { return st[q].Payload.ev[c] != 0 },
		func(q int32, c uint8) (int32, bool) {
			t := st[q].Trans(c)
			if t < lazydfa.Dead || int(t) >= len(st) {
				t, st = sc.dfa.Resolve(q, c)
			}
			return t, t != lazydfa.Overflow
		}, cur)
}

// ScanRun is one resumable left-to-right pass of the compiled splitter
// scanner. Feed consumes chunks and appends committed spans in absolute
// document coordinates; the run's whole cross-chunk state is a DFA
// state id plus the pending-open boundary, so resuming costs nothing
// and never rescans. A run is single-goroutine; concurrent runs over
// one Splitter are fine (they share the warm DFA).
type ScanRun struct {
	sc       *splitScanner
	state    int32
	pos      int // bytes consumed so far
	pending  int // 1-based boundary of the in-progress open; 0 = none
	lastOpen int // 1-based boundary of the last open/wrap event; 0 = none
	last     span.Span
	bailed   bool
	// gate decides when the scan may jump over trigger-free runs (see
	// internal/vsa/prefilter.go). Its engagement state persists across
	// Feed calls so tiny chunks (streaming readers feed as little as one
	// byte) still reach the skip threshold; per-chunk search state is
	// rebound by scanChunk.
	gate lazydfa.SkipGate[scanPayload]
}

// NewScanRun returns a fresh resumable scan, or ok=false when the
// splitter has no compiled scanner (it is not disjoint).
func (s *Splitter) NewScanRun() (*ScanRun, bool) {
	sc := s.scanner()
	if sc == nil {
		return nil, false
	}
	return &ScanRun{sc: sc, state: sc.start}, true
}

// Bailed reports whether the run has given up; spans emitted before the
// bail remain valid, and everything from Anchor on is the caller's (Split
// re-splits the whole document by the reference path).
func (r *ScanRun) Bailed() bool { return r.bailed }

// Anchor returns the 0-based byte offset from which the document must
// be retained: the start of the last span event (the in-progress open,
// or the most recent emitted span start). Every span the run emits from
// now on starts at or after Anchor, and — because an open/wrap boundary
// is a genuine span start — a bail fallback restarting at Anchor is
// licensed by the left cut of a locality proof (locality.go). Before
// any span event it is 0: nothing may be dropped yet.
func (r *ScanRun) Anchor() int {
	if r.lastOpen > 0 {
		return r.lastOpen - 1
	}
	return 0
}

// emit appends sp, enforcing strictly increasing (Start, End) order —
// a violation means an assumption (disjointness, single pending open)
// broke, so the run bails rather than emit an out-of-order span.
func (r *ScanRun) emit(out []span.Span, sp span.Span) ([]span.Span, bool) {
	if r.last.Start != 0 && (sp.Start < r.last.Start || (sp.Start == r.last.Start && sp.End <= r.last.End)) {
		return out, false
	}
	r.last = sp
	return append(out, sp), true
}

// Feed consumes the next chunk, appending every span committed by it to
// out (absolute 1-based coordinates, document order). ok=false means
// the run bailed: out still holds only valid spans, and the rest of the
// document from Anchor is the caller's (see Bailed).
func (r *ScanRun) Feed(chunk []byte, out []span.Span) (res []span.Span, ok bool) {
	return scanChunk(r, chunk, out)
}

func scanChunk[T ~string | ~[]byte](r *ScanRun, chunk T, out []span.Span) ([]span.Span, bool) {
	if r.bailed {
		return out, false
	}
	sc := r.sc
	st := sc.dfa.Snapshot()
	cur := r.state
	ok := true
	// Skip-loop machinery (see internal/vsa/prefilter.go): idx is the
	// vectorized byte search of this chunk's concrete type, hoisted so
	// the hot loop never boxes the chunk. A named ~string/~[]byte type
	// would leave idx nil and simply never skip.
	var idx func(from, to int, b byte) int
	if !sc.noSkip {
		switch d := any(chunk).(type) {
		case string:
			idx = lazydfa.StringIndex(d)
		case []byte:
			idx = lazydfa.BytesIndex(d)
		}
	}
	if idx != nil {
		r.gate.Bind(sc.dfa, sc.skipSet, idx)
	}
	for i := 0; i < len(chunk); i++ {
		c := sc.classOf[chunk[i]]
		if ev := st[cur].Payload.ev[c]; ev != 0 {
			b := r.pos + i + 1
			if ev&evBail != 0 {
				ok = false
				break
			}
			if ev&evClose != 0 {
				if r.pending == 0 {
					ok = false
					break
				}
				if out, ok = r.emit(out, span.Span{Start: r.pending, End: b}); !ok {
					break
				}
				r.pending = 0
			}
			if ev&evWrap != 0 {
				if out, ok = r.emit(out, span.Span{Start: b, End: b}); !ok {
					break
				}
				r.lastOpen = b
			}
			if ev&evOpen != 0 {
				r.pending = b
				r.lastOpen = b
			}
		}
		t := st[cur].Trans(c)
		if t < lazydfa.Dead || int(t) >= len(st) { // rare: unresolved, stale or overflowed
			if t, st = sc.dfa.Resolve(cur, c); t == lazydfa.Overflow {
				ok = false
				break
			}
		}
		if idx != nil {
			// The scan is confined to a synchronized, event-free state set:
			// jump to the next byte that can break out or raise an event.
			// Skipped bytes are class-proven event-free, so spans, pending
			// and Anchor come out byte-identical to the stepped scan, and
			// the landing state is the sync state of the last skipped byte.
			if sk := r.gate.Step(st, cur, t); sk != nil {
				if j, _ := r.gate.Jump(sk, i+1, len(chunk)); j > i+1 {
					st = sc.dfa.Snapshot() // the set's build may have interned its states
					t = sk.Sync(chunk[j-1])
					i = j - 1 // byte j's events re-checked from the sync state
				}
			}
		}
		cur = t
	}
	r.state = cur
	r.pos += len(chunk)
	if !ok {
		r.bailed = true
	}
	return out, ok
}

// Flush ends the stream: final operation sets of the current subset are
// applied at the end-of-document boundary. ok=false reports a bail
// (here or earlier).
func (r *ScanRun) Flush(out []span.Span) (res []span.Span, ok bool) {
	if r.bailed {
		return out, false
	}
	pl := r.sc.dfa.Snapshot()[r.state].Payload
	end := r.pos + 1
	if pl.endClose {
		if r.pending == 0 {
			r.bailed = true
			return out, false
		}
		if out, ok = r.emit(out, span.Span{Start: r.pending, End: end}); !ok {
			r.bailed = true
			return out, false
		}
	}
	if pl.endWrap {
		if out, ok = r.emit(out, span.Span{Start: end, End: end}); !ok {
			r.bailed = true
			return out, false
		}
	}
	return out, true
}

// scan is the whole-document pass used by Split.
func (sc *splitScanner) scan(doc string) ([]span.Span, bool) {
	r := ScanRun{sc: sc, state: sc.start}
	out, ok := scanChunk(&r, doc, make([]span.Span, 0, 8))
	if !ok {
		return nil, false
	}
	return r.Flush(out)
}
