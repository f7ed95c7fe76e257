package core

import (
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/automata"
	"repro/internal/vsa"
)

// SplitCorrect decides the Split-correctness problem of Section 3.2: is
// P = P_S ∘ S? Following Theorem 5.1, the composition is constructed in
// polynomial time (Lemma C.2) and equivalence is tested; the equivalence
// test is PSPACE in the worst case and guarded by limit.
func SplitCorrect(p, ps *vsa.Automaton, s *Splitter, limit int) (bool, error) {
	return vsa.Equivalent(p, Compose(ps, s), limit)
}

// SplitCorrectWitness is SplitCorrect but, on failure, also returns a
// document on which P and P_S ∘ S disagree — the "debugging" use case of
// the introduction.
func SplitCorrectWitness(p, ps *vsa.Automaton, s *Splitter, limit int) (ok bool, witness string, err error) {
	doc, found, err := vsa.Distinguish(p, Compose(ps, s), limit)
	return err == nil && !found, doc, err
}

// ---------------------------------------------------------------------------
// Theorem 5.7: polynomial-time split-correctness for deterministic
// functional automata and a disjoint splitter.
//
// The procedure has three parts.
//
//  1. The cover condition must hold (Lemma 5.3 makes it necessary); it is
//     checked in polynomial time per Lemma 5.6.
//  2. For tuples with a nonempty hull the covering split is unique
//     (disjointness), so split-correctness restricted to those tuples is
//     the absence of a (document, split, tuple) witness on which exactly
//     one of P and P_S accepts. The witness search is a breadth-first
//     product simulation of P, S and P_S over guessed extended ref-words —
//     the paper's NL-style procedure — with dead states modeling rejection
//     by the deterministic components.
//  3. For tuples whose spans are all empty at a single boundary the
//     covering split need not be unique (up to three touching splits can
//     contain the boundary — an edge case the paper's uniqueness argument
//     overlooks; see DESIGN.md), so membership in P_S ∘ S is a disjunction
//     over the touching splits. Forward containment (P accepts ⇒ some
//     touching split's P_S accepts) is decided by inclusion–exclusion over
//     accepting-path counts of per-case unambiguous automata; the backward
//     direction (each case ⇒ P accepts) is containment into the
//     deterministic marked-word automaton of P.
// ---------------------------------------------------------------------------

// SplitCorrectPoly decides P = P_S ∘ S in polynomial time (Theorem 5.7).
// It requires p, ps and the splitter automaton to be deterministic and s
// to be disjoint, and returns an error otherwise. Spanners of arity 0 are
// outside the scope of the paper's procedure and also return an error.
func SplitCorrectPoly(p, ps *vsa.Automaton, s *Splitter) (bool, error) {
	if p.Arity() == 0 {
		return false, fmt.Errorf("core: SplitCorrectPoly: Boolean spanners are not supported; use SplitCorrect")
	}
	ps2, err := alignToVars(ps, p.Vars)
	if err != nil {
		return false, err
	}
	ctx, err := newPolyCtx(p, ps2, s)
	if err != nil {
		return false, err
	}
	if !ctx.coverPoly() {
		return false, nil
	}
	if ctx.findDisagreement() {
		return false, nil
	}
	return ctx.emptyHullCorrect(), nil
}

func alignToVars(a *vsa.Automaton, vars []string) (*vsa.Automaton, error) {
	same := len(a.Vars) == len(vars)
	if same {
		for i := range vars {
			if a.Vars[i] != vars[i] {
				same = false
				break
			}
		}
	}
	if same {
		return a, nil
	}
	return a.ReorderVars(vars)
}

const deadState = -1

// move is one deterministic step alternative of a component automaton on a
// fixed operation batch: reach state to on any byte of cls (to may be
// deadState, meaning the component rejects on those bytes).
type move struct {
	to  int
	cls alphabet.Class
}

// movesOn lists the step alternatives of automaton a from state q (or
// deadState) on batch ops, partitioning the full byte space.
func movesOn(a *vsa.Automaton, q int, ops vsa.OpSet) []move {
	if q == deadState {
		return []move{{deadState, alphabet.Any}}
	}
	var out []move
	var covered alphabet.Class
	for _, e := range a.States[q].Edges {
		if e.Ops == ops {
			out = append(out, move{e.To, e.Class})
			covered = covered.Union(e.Class)
		}
	}
	if rest := covered.Complement(); !rest.IsEmpty() {
		out = append(out, move{deadState, rest})
	}
	return out
}

func hasFinal(a *vsa.Automaton, q int, ops vsa.OpSet) bool {
	if q == deadState {
		return false
	}
	for _, f := range a.States[q].Finals {
		if f == ops {
			return true
		}
	}
	return false
}

// findDisagreement implements part 2 of Theorem 5.7: it reports whether
// there are a document d, a split s ∈ S(d) and a tuple t with nonempty
// hull contained in s such that exactly one of t ∈ P(d) and shifted-t ∈
// P_S(d_s) holds.
func (c *polyCtx) findDisagreement() bool {
	p, ps, sa := c.p, c.ps, c.s.auto
	n := p.Arity()
	all := vsa.AllClosed(n)
	type cfg struct {
		phase int // 1 before the split, 2 inside, 3 after
		qp    int
		qs    int
		qps   int
		psAcc bool
		st    vsa.Status
	}
	seen := map[cfg]bool{}
	var queue []cfg
	push := func(nc cfg) {
		// Prune configurations from which neither side can accept.
		if nc.phase == 2 && nc.qp == deadState && nc.qps == deadState {
			return
		}
		if nc.phase == 3 && nc.qp == deadState && !nc.psAcc {
			return
		}
		if !seen[nc] {
			seen[nc] = true
			queue = append(queue, nc)
		}
	}
	push(cfg{1, p.Start, sa.Start, deadState, false, 0})
	// singleBatch reports whether taking batch b from status st would
	// realize an empty-hull tuple (all operations at one boundary); those
	// tuples belong to part 3.
	singleBatch := func(st vsa.Status, b batch) bool { return st == 0 && b.st == all }
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		// End-of-document acceptance checks.
		switch k.phase {
		case 2:
			for _, f := range sa.States[k.qs].Finals {
				if splitOpKind(f) != sClose {
					continue
				}
				for _, b := range batchesFrom(k.st, n) {
					if b.st != all || singleBatch(k.st, b) {
						continue
					}
					pAcc := hasFinal(p, k.qp, b.ops)
					psAcc := hasFinal(ps, k.qps, b.ops)
					if pAcc != psAcc {
						return true
					}
				}
			}
		case 3:
			for _, f := range sa.States[k.qs].Finals {
				if splitOpKind(f) != sNone {
					continue
				}
				if hasFinal(p, k.qp, 0) != k.psAcc {
					return true
				}
			}
		}
		// Letter steps.
		for _, e := range sa.States[k.qs].Edges {
			kind := splitOpKind(e.Ops)
			switch {
			case k.phase == 1 && kind == sNone:
				for _, mp := range movesOn(p, k.qp, 0) {
					cls := e.Class.Intersect(mp.cls)
					if !cls.IsEmpty() {
						push(cfg{1, mp.to, e.To, deadState, false, 0})
					}
				}
			case k.phase == 1 && kind == sOpen:
				for _, b := range batchesFrom(0, n) {
					if singleBatch(0, b) {
						continue
					}
					for _, mp := range movesOn(p, k.qp, b.ops) {
						for _, mps := range movesOn(ps, ps.Start, b.ops) {
							cls := e.Class.Intersect(mp.cls).Intersect(mps.cls)
							if !cls.IsEmpty() {
								push(cfg{2, mp.to, e.To, mps.to, false, b.st})
							}
						}
					}
				}
			case k.phase == 2 && kind == sNone:
				for _, b := range batchesFrom(k.st, n) {
					if singleBatch(k.st, b) {
						continue
					}
					for _, mp := range movesOn(p, k.qp, b.ops) {
						for _, mps := range movesOn(ps, k.qps, b.ops) {
							cls := e.Class.Intersect(mp.cls).Intersect(mps.cls)
							if !cls.IsEmpty() {
								push(cfg{2, mp.to, e.To, mps.to, false, b.st})
							}
						}
					}
				}
			case k.phase == 2 && kind == sClose:
				for _, b := range batchesFrom(k.st, n) {
					if b.st != all || singleBatch(k.st, b) {
						continue
					}
					psAcc := hasFinal(ps, k.qps, b.ops)
					for _, mp := range movesOn(p, k.qp, b.ops) {
						cls := e.Class.Intersect(mp.cls)
						if !cls.IsEmpty() {
							push(cfg{3, mp.to, e.To, deadState, psAcc, all})
						}
					}
				}
			case k.phase == 3 && kind == sNone:
				for _, mp := range movesOn(p, k.qp, 0) {
					cls := e.Class.Intersect(mp.cls)
					if !cls.IsEmpty() {
						push(cfg{3, mp.to, e.To, deadState, k.psAcc, all})
					}
				}
			}
		}
	}
	return false
}

// emptyHullCorrect implements part 3 of Theorem 5.7. The marked-word
// automaton of P over empty-hull tuples must coincide with the union of
// the four touching-split case automata of P_S ∘ S.
func (c *polyCtx) emptyHullCorrect() bool {
	a1 := c.buildAPe()
	cases := make([]*automata.NFA, numCases)
	for k := 0; k < numCases; k++ {
		cases[k] = c.buildSplitCase(k)
	}
	// Forward: P accepts ⇒ some touching split's P_S accepts.
	if !containsViaUnion(a1, cases) {
		return false
	}
	// Backward: every touching-split acceptance is matched by P. The
	// marked-word automaton of a deterministic P is deterministic, so each
	// containment is a linear product check.
	for k := 0; k < numCases; k++ {
		trimmed := cases[k].Trim()
		if trimmed.Len() == 0 {
			continue
		}
		if ok, _ := automata.ContainsDet(trimmed, a1); !ok {
			return false
		}
	}
	return true
}

// buildSplitCase builds the automaton accepting marked empty-hull words
// for which S has a split touching the batch boundary in the given way
// and P_S accepts the corresponding all-empty tuple on the segment. Each
// case automaton is unambiguous: the touching split of each kind is
// unique by disjointness, and S and P_S are deterministic.
func (c *polyCtx) buildSplitCase(kind int) *automata.NFA {
	n := automata.New(c.nsym)
	sa, ps := c.s.auto, c.ps
	batchSym := c.opIdx[c.all]
	psAccEmpty := hasFinal(ps, ps.Start, c.all)
	// Modes: 0 pre, 1 open-before-boundary (with P_S state), 2 pending
	// (just after the batch symbol), 3 open-after-boundary (with P_S
	// state), 4 done.
	type key struct {
		mode int
		qs   int
		qps  int
	}
	id := map[key]int{}
	var queue []key
	intern := func(k key) int {
		if i, ok := id[k]; ok {
			return i
		}
		final := false
		for _, f := range sa.States[k.qs].Finals {
			kf := splitOpKind(f)
			switch k.mode {
			case 2:
				if kind == caseEmptyAt && kf == sWrap && psAccEmpty {
					final = true
				}
				if kind == caseEndsAt && kf == sClose {
					final = true
				}
			case 3:
				if kf == sClose && hasFinal(ps, k.qps, 0) {
					final = true
				}
			case 4:
				if kf == sNone {
					final = true
				}
			}
		}
		i := n.AddState(final)
		id[k] = i
		queue = append(queue, k)
		return i
	}
	n.AddStart(intern(key{0, sa.Start, deadState}))
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		from := id[k]
		letter := func(cls alphabet.Class, mode, qs, qps int) {
			if cls.IsEmpty() {
				return
			}
			to := intern(key{mode, qs, qps})
			for _, a := range c.atomsOf(cls) {
				n.AddEdge(from, c.lsym(a, 0), to)
			}
		}
		switch k.mode {
		case 0: // before the boundary, split not open
			for _, e := range sa.States[k.qs].Edges {
				switch splitOpKind(e.Ops) {
				case sNone:
					letter(e.Class, 0, e.To, deadState)
				case sOpen:
					if kind == caseEndsAt || kind == caseStrict {
						// The split (and P_S) starts before the boundary.
						for _, f := range ps.States[ps.Start].Edges {
							if f.Ops == 0 {
								letter(e.Class.Intersect(f.Class), 1, e.To, f.To)
							}
						}
					}
				}
			}
			if kind == caseEmptyAt || kind == caseStartsAt {
				n.AddEdge(from, batchSym, intern(key{2, k.qs, deadState}))
			}
		case 1: // split open before the boundary
			for _, e := range sa.States[k.qs].Edges {
				if splitOpKind(e.Ops) != sNone {
					continue
				}
				for _, f := range ps.States[k.qps].Edges {
					if f.Ops == 0 {
						letter(e.Class.Intersect(f.Class), 1, e.To, f.To)
					}
				}
			}
			switch kind {
			case caseEndsAt:
				// The boundary is the segment's end: P_S must accept with
				// the complete batch as its final operations.
				if hasFinal(ps, k.qps, c.all) {
					n.AddEdge(from, batchSym, intern(key{2, k.qs, deadState}))
				}
			case caseStrict:
				n.AddEdge(from, batchSym, intern(key{2, k.qs, k.qps}))
			}
		case 2: // immediately after the batch symbol
			for _, e := range sa.States[k.qs].Edges {
				kk := splitOpKind(e.Ops)
				switch kind {
				case caseEmptyAt:
					if kk == sWrap && psAccEmpty {
						letter(e.Class, 4, e.To, deadState)
					}
				case caseStartsAt:
					if kk == sOpen {
						// P_S consumes the segment's first byte performing
						// the complete batch.
						for _, f := range ps.States[ps.Start].Edges {
							if f.Ops == c.all {
								letter(e.Class.Intersect(f.Class), 3, e.To, f.To)
							}
						}
					}
				case caseEndsAt:
					if kk == sClose {
						letter(e.Class, 4, e.To, deadState)
					}
				case caseStrict:
					if kk == sNone {
						// P_S performs the complete batch strictly inside
						// the segment.
						for _, f := range ps.States[k.qps].Edges {
							if f.Ops == c.all {
								letter(e.Class.Intersect(f.Class), 3, e.To, f.To)
							}
						}
					}
				}
			}
		case 3: // split open after the boundary
			for _, e := range sa.States[k.qs].Edges {
				switch splitOpKind(e.Ops) {
				case sNone:
					for _, f := range ps.States[k.qps].Edges {
						if f.Ops == 0 {
							letter(e.Class.Intersect(f.Class), 3, e.To, f.To)
						}
					}
				case sClose:
					if hasFinal(ps, k.qps, 0) {
						letter(e.Class, 4, e.To, deadState)
					}
				}
			}
		case 4: // split closed
			for _, e := range sa.States[k.qs].Edges {
				if splitOpKind(e.Ops) == sNone {
					letter(e.Class, 4, e.To, deadState)
				}
			}
		}
	}
	n.DedupeEdges()
	return n
}
