package core

// This file decides *locality* of a disjoint splitter: whether chunked
// incremental segmentation — the carry-over segmenter of
// internal/engine, which repeatedly splits a buffered suffix of the
// document, emits every segment but the last, and restarts the buffer
// at the last segment's start — is guaranteed byte-identical to
// splitting the whole document at once, for every document and every
// chunking. PR 3 made incremental streaming an operator opt-in exactly
// because disjointness alone does not imply this; IsLocal turns the
// opt-in into a proof obligation the engine can discharge on the
// splitter automaton, in the spirit of the paper's program of deciding
// splitter properties syntactically (Doleschal et al., PODS 2019,
// Section 5) rather than trusting them.
//
// # What the segmenter needs
//
// Write S(d) for the splitter's spans on document d, sorted. The
// segmenter is correct for every chunking iff for all strings w, u with
// |S(w)| ≥ 2 and a = start of the last span of S(w):
//
//	S(w·u) = nonlast(S(w)) ++ shift(S(w[a:]·u), a)     (E)
//
// — the spans the segmenter emits from a buffer w survive any extension
// u unchanged, no new spans ever appear to their left, and the
// segmentation of the retained suffix, computed from scratch, agrees
// with the tail of the whole-document segmentation. (E) quantifies over
// all documents, so it is a property of the automaton, not of any one
// input.
//
// # The sufficient conditions IsLocal verifies
//
// Every span of S(d) is witnessed by one accepting run of the unary
// automaton: the run opens x at the span's start boundary (on the edge
// consuming the first span byte, or as a wrap for an empty span) and
// closes it at the end boundary (on the edge consuming the byte after
// the span, or in a final operation set at document end). IsLocal
// checks disjointness plus three conditions, each a reachability
// analysis over byte-class atoms:
//
//	(L1) Committed acceptance. Every useful state whose variable is
//	     open or closed accepts *every* continuation. Once a run opens
//	     a span, no future byte can retract it: whether a span starts
//	     at a boundary is then determined by the reachable state set
//	     (the frontier) and the next byte alone, and whether it ends at
//	     a boundary by the run and the next byte alone — zero lookahead
//	     beyond one byte, which is exactly what the segmenter's
//	     emit-all-but-last rule can afford. Checked by enumerating, on
//	     the reversed automaton (automata.Reverse), the subset states
//	     "from which states does w reach acceptance": L1 holds iff
//	     every open/closed state lies in all of them.
//	(L2) No EOF ambiguity. No reachable frontier can simultaneously
//	     close a nonempty span at document end and open an empty one
//	     there. This is the one configuration in which the segmenter
//	     would emit a span whose end was justified only by the buffer
//	     ending — an end a longer document may move.
//	(L3) Factoring. For every reachable frontier F at which a span can
//	     start, a synchronized walk of the pair (F, {q₀}) — the
//	     whole-document frontier versus the fresh-buffer frontier —
//	     agrees at every subsequent boundary on all boundary events:
//	     span opens per next-byte atom, empty-span wraps per atom,
//	     empty span at EOF, and the *end profile* of the states an open
//	     reaches. The end profile of a state set T is the language of
//	     annotated words v·β such that some run from T reads the span
//	     content v and closes on next-byte atom β (or at EOF, β = $);
//	     equal profiles mean the two documents agree on where the span
//	     ends for every continuation. Profiles are compared by
//	     enumerating the subset states of the reversed close automaton
//	     once and fingerprinting each T against them, so the pair walk
//	     costs a signature comparison per (pair, atom), not a language
//	     equivalence test.
//
// # Soundness sketch (the fuzz target's contract)
//
// Under disjointness + L1, a span starts at boundary p of d iff the
// frontier before p has a status-0 state with an open edge on d's next
// byte (or a wrap final at EOF) — acceptance of the remainder is
// guaranteed, not assumed. Disjointness makes the end of the span
// starting at p unique per document, and L1 makes the closing run
// insensitive to everything after its close. Hence: (i) emitted spans
// survive extension — their opens and byte-edge closes reread the same
// prefix, and L2 rules out the only EOF-justified close an emitted
// span could have; (ii) no new spans appear left of the cut — starts
// there are decided by frontiers the extension cannot reach back to;
// (iii) the retained suffix re-segments identically — L3's pair walk
// verifies every boundary event agrees between the suffix frontier and
// the whole-document frontier from the cut on. Together these give (E)
// for every (w, u), which is the induction step of the segmenter's
// correctness proof. The procedure is sound but deliberately
// incomplete: a verdict of "local" is a proof, a verdict of "not
// local" means only that no proof was found (FuzzLocalityVsBuffered
// exercises the sound direction; TestIsLocalLibrarySplitters pins the
// coverage).
//
// All separator-driven splitters — sentences, paragraphs, tokens,
// records: block bytes and separator bytes partitioning the alphabet —
// satisfy L1–L3. Splitters whose segmentation depends on unbounded
// right context (e.g. blocks that only count if the document ends in
// '!') fail L1 and are correctly left to the buffer-all path.
//
// # Corollary: cut independence
//
// The segmenter cuts only at the start of a buffer's last span, but L3
// walks every frontier at which a span can start, so the same proof
// licenses a cut at the start of *any* span: for [a, ·⟩ ∈ S(d), the spans
// of S(d[a:]) are the spans of S(d) that start at or after a. A local
// splitter whose scanner is also cut-safe (Splitter.CutSafe, splitscan.go:
// the document may be truncated at any span end) is therefore *cut
// independent*: for a chunk t = d[a:b) running from a span start to a
// span end, S(t) is exactly S(d) restricted to t, shifted. Split-
// correctness holds on every document, chunks included, so
// P(t) = (P_S ∘ S)(t) is the chunk's share of (P_S ∘ S)(d) = P(d) — the
// engine may evaluate P once per chunk of consecutive segments instead
// of P_S once per segment (internal/engine, chunked; DESIGN.md, "Grain").
// CutSafe restates L1 (an open state accepts the empty continuation, so
// a close can fire at the truncated end) and L2 (nothing else fires
// there) on the scanner's states, and adds what locality does not need:
// an empty span must not share a boundary with a close, must be emitted
// at a truncated end exactly where it is emitted before a byte, and the
// scanner must never bail. FuzzCutIndependence (internal/engine) holds
// the pair of verdicts to the property against SplitReference.

import (
	"fmt"
	"math/bits"

	"repro/internal/alphabet"
	"repro/internal/automata"
	"repro/internal/vsa"
)

// IsLocal reports whether the splitter provably supports incremental
// chunked segmentation: chunk-at-a-time splitting with carry-over (see
// internal/engine's segmenter) is byte-identical to whole-document
// splitting, for every document and chunk size. Only disjoint splitters
// can be local; for a non-disjoint splitter IsLocal returns false. The
// procedure is sound and incomplete: true is a machine-checked proof,
// false means no proof was found. limit bounds the subset-construction
// state spaces (≤ 0 selects automata.DefaultLimit); past the bound
// IsLocal fails with automata.ErrTooLarge, and callers should treat the
// verdict as unknown and buffer.
func (s *Splitter) IsLocal(limit int) (bool, error) {
	if !s.IsDisjoint() {
		return false, nil
	}
	return s.isLocalDisjoint(limit)
}

// isLocalDisjoint runs the L1–L3 analysis assuming disjointness has
// already been established (IsDisjoint memoizes, so the engine's
// separately computed disjointness verdict is not paid for twice).
func (s *Splitter) isLocalDisjoint(limit int) (bool, error) {
	if limit <= 0 {
		limit = automata.DefaultLimit
	}
	a := s.auto.Trim()
	if len(a.States) == 1 && len(a.States[a.Start].Edges) == 0 && len(a.States[a.Start].Finals) == 0 {
		// Trim reduced the automaton to the bare start state: S(d) = ∅
		// for every document, so the segmenter never emits and the
		// flush is empty — trivially identical to one-shot.
		return true, nil
	}
	statuses, err := a.Statuses()
	if err != nil {
		return false, fmt.Errorf("core: locality: %w", err)
	}
	c := &localityCheck{a: a, limit: limit, st: make([]int, len(a.States))}
	for q := range a.States {
		c.st[q] = statuses[q].VarStatus(0)
	}
	// Byte-class atoms of the trimmed automaton, plus one atom for the
	// bytes no edge consumes (they kill every run, but documents may
	// still contain them, so frontiers must step over them).
	classes := a.Classes()
	c.atoms = alphabet.Atoms(classes)
	if dead := alphabet.UnionAll(classes).Complement(); !dead.IsEmpty() {
		c.atoms = append(c.atoms, dead)
	}
	c.nfa = c.byteNFA()

	if ok, err := c.committedAcceptance(); err != nil || !ok { // L1
		return false, err
	}
	if err := c.buildFrontiers(); err != nil {
		return false, err
	}
	if !c.noEOFAmbiguity() { // L2
		return false, nil
	}
	return c.factoring() // L3
}

// localityCheck carries the shared state of one IsLocal run.
type localityCheck struct {
	a     *vsa.Automaton
	st    []int // per-state splitter status: 0 unopened, 1 open, 2 closed
	atoms []alphabet.Class
	limit int

	// nfa is the splitter automaton with its variable operations
	// dropped, over the atom alphabet: state q steps to r on atom c iff
	// some edge q → r consumes a byte of c, and q is final iff it has a
	// final operation set. front is its subset construction — the
	// splitter's frontier DFA — and frontiers holds the boundary events
	// of each frontier, indexed by front's ids. The subset construction
	// of nfa's reversal enumerates the sets L1 quantifies over.
	nfa       *automata.NFA
	front     *automata.Subsets
	frontiers []frontierInfo
	sigs      *profileSigs
}

// frontierInfo is one state of the splitter's frontier DFA (the subset
// construction over all runs), annotated with the boundary events the
// locality conditions compare. Slices are indexed by atom.
type frontierInfo struct {
	// openNow[c]: a nonempty span can start at this boundary when the
	// next byte is in atom c (a status-0 state has an Open edge on c).
	openNow []bool
	// wrapNow[c]: an empty span sits at this boundary when the next
	// byte is in atom c (a status-0 state has a Wrap edge on c).
	wrapNow []bool
	// openSig[c]: interned end-profile signature of the states the
	// opens on atom c reach, or -1 when openNow[c] is false.
	openSig []int32
	// openEOF: an empty span sits at the final boundary (a status-0
	// state has a wrap final operation set).
	openEOF bool
	// closeEOF: a nonempty span ends at the final boundary (a status-1
	// state has a final operation set).
	closeEOF bool
}

// openEvent reports whether any span can start at this boundary — the
// frontiers at which the segmenter can cut, and hence the left sides of
// the L3 pair walk.
func (f *frontierInfo) openEvent() bool {
	if f.openEOF {
		return true
	}
	for c := range f.openNow {
		if f.openNow[c] || f.wrapNow[c] {
			return true
		}
	}
	return false
}

// committedAcceptance checks L1: every useful open/closed state accepts
// every continuation. L_acc(q) = Σ* for all q is equivalent to q being
// a member of every set "states from which w reaches acceptance", and
// those sets are exactly the subset states of the determinized
// *reversed* acceptance automaton — automata.Reverse turns final states
// into start states, so its subset walk enumerates them directly.
func (c *localityCheck) committedAcceptance() (bool, error) {
	n := len(c.a.States)
	inAll := make([]bool, n)
	for q := range inAll {
		inAll[q] = true
	}
	member := make([]bool, n)
	err := reachSubsets(automata.Reverse(c.nfa), c.limit, func(set []int32) {
		for _, q := range set {
			member[q] = true
		}
		for q := 0; q < n; q++ {
			if !member[q] {
				inAll[q] = false
			}
		}
		for _, q := range set {
			member[q] = false
		}
	})
	if err != nil {
		return false, err
	}
	for q := 0; q < n; q++ {
		if c.st[q] != 0 && !inAll[q] {
			return false, nil
		}
	}
	return true, nil
}

// byteNFA builds localityCheck.nfa.
func (c *localityCheck) byteNFA() *automata.NFA {
	nfa := automata.New(len(c.atoms))
	for _, st := range c.a.States {
		nfa.AddState(len(st.Finals) > 0)
	}
	for q, st := range c.a.States {
		for _, e := range st.Edges {
			for sym, atom := range c.atoms {
				if e.Class.Intersects(atom) {
					nfa.AddEdge(q, sym, e.To)
				}
			}
		}
	}
	nfa.AddStart(c.a.Start)
	nfa.DedupeEdges()
	return nfa
}

// buildFrontiers runs the frontier subset construction from {q₀} — the
// breadth-first exploration of nfa's subset table, whose ids are the
// frontier ids and whose memoized rows are the frontier transitions —
// and annotates each frontier, as the walk reaches it, with its
// boundary events and the end-profile signatures of its open targets.
func (c *localityCheck) buildFrontiers() error {
	var err error
	if c.sigs, err = newProfileSigs(c); err != nil {
		return err
	}
	c.front = automata.NewSubsets(c.nfa)
	err = c.front.Explore(c.limit, func(id int32) {
		c.frontiers = append(c.frontiers, c.annotate(c.front.Set(id)))
	})
	if err != nil {
		return fmt.Errorf("core: locality frontier construction: %w", err)
	}
	return nil
}

// annotate computes the boundary events of one frontier set.
func (c *localityCheck) annotate(set []int32) frontierInfo {
	nsym := len(c.atoms)
	f := frontierInfo{
		openNow: make([]bool, nsym),
		wrapNow: make([]bool, nsym),
		openSig: make([]int32, nsym),
	}
	for sym := range f.openSig {
		f.openSig[sym] = -1
	}
	var openTargets [][]int32
	for _, q := range set {
		switch c.st[q] {
		case 0:
			for _, fin := range c.a.States[q].Finals {
				if splitOpKind(fin) == sWrap {
					f.openEOF = true
				}
			}
		case 1:
			if len(c.a.States[q].Finals) > 0 {
				f.closeEOF = true
			}
		}
		if c.st[q] != 0 {
			continue
		}
		for _, e := range c.a.States[q].Edges {
			kind := splitOpKind(e.Ops)
			if kind != sOpen && kind != sWrap {
				continue
			}
			for sym, atom := range c.atoms {
				if !e.Class.Intersects(atom) {
					continue
				}
				if kind == sWrap {
					f.wrapNow[sym] = true
					continue
				}
				f.openNow[sym] = true
				if openTargets == nil {
					openTargets = make([][]int32, nsym)
				}
				openTargets[sym] = append(openTargets[sym], int32(e.To))
			}
		}
	}
	for sym, targets := range openTargets {
		if len(targets) > 0 {
			f.openSig[sym] = c.sigs.signature(targets)
		}
	}
	return f
}

// noEOFAmbiguity checks L2 on every reachable frontier.
func (c *localityCheck) noEOFAmbiguity() bool {
	for i := range c.frontiers {
		if c.frontiers[i].openEOF && c.frontiers[i].closeEOF {
			return false
		}
	}
	return true
}

// factoring checks L3: from every (cut frontier, fresh frontier) pair,
// all reachable pairs agree on every boundary event. Diagonal pairs
// agree trivially and step to diagonal pairs, so only off-diagonal
// pairs are walked; the walk is bounded by limit.
func (c *localityCheck) factoring() (bool, error) {
	startID := int32(0) // Explore numbers the start subset {q₀} first
	type pair struct{ f, g int32 }
	seen := map[pair]bool{}
	var queue []pair
	push := func(p pair) error {
		if p.f == p.g || seen[p] {
			return nil
		}
		if len(seen) >= c.limit {
			return fmt.Errorf("core: locality pair walk: %w", automata.ErrTooLarge)
		}
		seen[p] = true
		queue = append(queue, p)
		return nil
	}
	for id := range c.frontiers {
		if c.frontiers[id].openEvent() {
			if err := push(pair{int32(id), startID}); err != nil {
				return false, err
			}
		}
	}
	for i := 0; i < len(queue); i++ {
		p := queue[i]
		f, g := &c.frontiers[p.f], &c.frontiers[p.g]
		if f.openEOF != g.openEOF {
			return false, nil
		}
		for sym := range c.atoms {
			if f.openNow[sym] != g.openNow[sym] ||
				f.wrapNow[sym] != g.wrapNow[sym] ||
				f.openSig[sym] != g.openSig[sym] {
				return false, nil
			}
			if err := push(pair{c.front.Step(p.f, sym), c.front.Step(p.g, sym)}); err != nil {
				return false, err
			}
		}
	}
	return true, nil
}

// profileSigs fingerprints end profiles. The end profile of a state set
// T is the language of words v·β (β an atom or the EOF marker $) such
// that some status-1 run from T reads span content v and then closes
// consuming a byte of β, or closes in a final operation set when β = $.
// Two sets have equal profiles iff they intersect exactly the same sets
// "states from which v·β reaches the close" — and those are the subset
// states of the determinized reversed close automaton. newProfileSigs
// enumerates them once (automata.Reverse seeds the walk at the close
// sink) and records, per automaton state, a bitset of the subsets it
// belongs to; a set's signature is the union of its members' bitsets,
// interned so the pair walk compares plain int32s.
type profileSigs struct {
	bits [][]uint64        // per state: membership over enumerated subsets
	sigs automata.SetTable // distinct profiles, as sets of subset indices
	buf  []uint64
	set  []int32
}

func newProfileSigs(c *localityCheck) (*profileSigs, error) {
	n := len(c.a.States)
	nsym := len(c.atoms)
	cp := automata.New(nsym + 1) // +1: the $ EOF marker
	for q := 0; q < n; q++ {
		cp.AddState(false)
	}
	sink := cp.AddState(true)
	for q, st := range c.a.States {
		if c.st[q] != 1 {
			continue
		}
		for _, e := range st.Edges {
			kind := splitOpKind(e.Ops)
			if kind != sNone && kind != sClose {
				continue
			}
			to := e.To
			if kind == sClose {
				to = sink
			}
			for sym, atom := range c.atoms {
				if e.Class.Intersects(atom) {
					cp.AddEdge(q, sym, to)
				}
			}
		}
		if len(st.Finals) > 0 {
			cp.AddEdge(q, nsym, sink)
		}
	}
	cp.DedupeEdges()
	s := &profileSigs{bits: make([][]uint64, n)}
	var nsub int
	err := reachSubsets(automata.Reverse(cp), c.limit, func(set []int32) {
		word, bit := nsub/64, uint64(1)<<(nsub%64)
		nsub++
		for _, q := range set {
			if int(q) >= n {
				continue // the sink carries no profile of its own
			}
			for len(s.bits[q]) <= word {
				s.bits[q] = append(s.bits[q], 0)
			}
			s.bits[q][word] |= bit
		}
	})
	if err != nil {
		return nil, err
	}
	s.buf = make([]uint64, (nsub+63)/64)
	return s, nil
}

// signature interns the profile of a state set and returns its id.
func (s *profileSigs) signature(targets []int32) int32 {
	clear(s.buf)
	for _, q := range targets {
		for i, w := range s.bits[q] {
			s.buf[i] |= w
		}
	}
	set := s.set[:0]
	for i, w := range s.buf {
		for ; w != 0; w &= w - 1 {
			set = append(set, int32(i*64+bits.TrailingZeros64(w)))
		}
	}
	s.set = set
	return s.sigs.Intern(set)
}

// reachSubsets enumerates the reachable subset states of nfa's
// determinization in BFS order, calling visit on each (the start set
// included, even when empty — the empty set is the dead state bytes
// outside every edge class lead to). It fails with automata.ErrTooLarge
// past limit.
func reachSubsets(nfa *automata.NFA, limit int, visit func(set []int32)) error {
	t := automata.NewSubsets(nfa)
	err := t.Explore(limit, func(id int32) { visit(t.Set(id)) })
	if err != nil {
		return fmt.Errorf("core: locality subset enumeration: %w", err)
	}
	return nil
}
