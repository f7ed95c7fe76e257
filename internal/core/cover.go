package core

import (
	"fmt"

	"repro/internal/alphabet"
	"repro/internal/automata"
	"repro/internal/vsa"
)

// batch is one candidate set of variable operations at a boundary together
// with the resulting status.
type batch struct {
	ops vsa.OpSet
	st  vsa.Status
}

// batchesFrom enumerates every valid operation batch from status st over n
// variables: each unseen variable may stay, open, or open-and-close; each
// open variable may stay or close. The result has at most 3^n entries.
func batchesFrom(st vsa.Status, n int) []batch {
	out := []batch{{0, st}}
	for v := 0; v < n; v++ {
		var choices []vsa.OpSet
		switch st.VarStatus(v) {
		case 0:
			choices = []vsa.OpSet{0, vsa.Open(v), vsa.Wrap(v)}
		case 1:
			choices = []vsa.OpSet{0, vsa.Close(v)}
		default:
			choices = []vsa.OpSet{0}
		}
		if len(choices) == 1 {
			continue
		}
		var next []batch
		for _, b := range out {
			for _, c := range choices {
				st2, ok := b.st.Apply(c)
				if !ok {
					panic("core: batchesFrom produced an invalid batch")
				}
				next = append(next, batch{b.ops | c, st2})
			}
		}
		out = next
	}
	return out
}

// statusCfg splits a status into two fields of an explorer configuration;
// cfgStatus joins them again.
func statusCfg(st vsa.Status) (lo, hi int32) { return int32(st), int32(st >> 32) }

func cfgStatus(lo, hi int32) vsa.Status { return vsa.Status(uint32(lo)) | vsa.Status(uint32(hi))<<32 }

// universal builds P_V, the universal spanner over vars (Lemma 5.4): on
// every document it selects every (V, d)-tuple. Its states are the
// variable statuses reachable from all-unseen, one per explorer
// configuration; from each, one edge on any byte per valid operation
// batch, and a final batch wherever that batch closes every variable.
func universal(vars []string) *vsa.Automaton {
	n := len(vars)
	all := vsa.AllClosed(n)
	out := vsa.NewAutomaton(vars...)
	var x automata.Explorer
	visit := func(st vsa.Status) int {
		id, added, _ := x.Visit(statusCfg(st))
		if added && id > 0 {
			out.AddState()
		}
		return int(id)
	}
	visit(0)
	for q := 0; q < x.Len(); q++ {
		c := x.Config(int32(q))
		for _, b := range batchesFrom(cfgStatus(c[0], c[1]), n) {
			out.AddEdge(q, b.ops, alphabet.Any, visit(b.st))
			if b.st == all {
				out.AddFinal(q, b.ops)
			}
		}
	}
	return out
}

// CoverAutomaton builds a spanner Cov over the variables of p that accepts
// exactly the (document, tuple) pairs in which some split of s contains
// every span of the tuple. The cover condition (Definition 5.2) for p and
// s is then the containment ⟦p⟧ ⊆ ⟦Cov⟧, which is how Lemma 5.4's upper
// bound is realized: the paper phrases it as P ⊆ P_V ∘ S, and Cov is that
// composition, P_V composed with s by Compose.
func CoverAutomaton(p *vsa.Automaton, s *Splitter) *vsa.Automaton {
	return Compose(universal(p.Vars), s)
}

// CoverCondition decides Definition 5.2 for arbitrary regular spanners and
// splitters via containment in the cover automaton. Like every general
// containment in this library it is PSPACE in the worst case (Lemma 5.4)
// and guarded by limit.
func CoverCondition(p *vsa.Automaton, s *Splitter, limit int) (bool, error) {
	if p.Arity() == 0 {
		return coverBoolean(p, s, limit)
	}
	return vsa.Contained(p, CoverAutomaton(p, s), limit)
}

// coverBoolean handles 0-ary spanners, for which the cover condition
// degenerates to "whenever p accepts, s produces at least one split":
// dom(p) ⊆ dom(s).
func coverBoolean(p *vsa.Automaton, s *Splitter, limit int) (bool, error) {
	dp := domainNFA(p)
	ds := domainNFA(s.auto)
	ok, _, err := automata.Contains(dp, ds, limit)
	return ok, err
}

// domainNFA projects an automaton to its domain language over byte atoms:
// the documents on which it produces at least one tuple. The atoms are
// global (one symbol per byte) so that domain automata of different
// spanners share an alphabet.
func domainNFA(a *vsa.Automaton) *automata.NFA {
	n := automata.New(256)
	base := make([]int, a.NumStates())
	for q := range a.States {
		final := len(a.States[q].Finals) > 0
		base[q] = n.AddState(final)
	}
	for q, st := range a.States {
		for _, e := range st.Edges {
			for _, b := range e.Class.Bytes() {
				n.AddEdge(base[q], int(b), base[e.To])
			}
		}
	}
	n.AddStart(base[a.Start])
	n.DedupeEdges()
	return n
}

// ---------------------------------------------------------------------------
// Polynomial-time cover condition (Lemma 5.6) for deterministic functional
// automata and disjoint splitters.
//
// The construction follows the paper's proof: translate p into an
// unambiguous automaton AP over marked words — byte atoms tagged with a
// bit that is 1 exactly strictly inside the tuple's hull, interleaved with
// operation-set symbols — and s into an automaton AS accepting the words
// whose hull is contained in some split; then test AP ⊆ AS by
// accepting-path counting (Stearns–Hunt). The paper's unambiguity claim
// for AS fails for tuples whose spans are all empty at one boundary (two
// touching disjoint splits can both cover such a tuple), so those words
// are split off into a separate deterministic automaton APe and checked
// against the union of four per-case unambiguous automata (split ends at,
// starts at, is empty at, or strictly contains the boundary) by
// inclusion–exclusion over path counts. See DESIGN.md.
// ---------------------------------------------------------------------------

// polyCtx carries the shared symbol table of the polynomial procedures.
type polyCtx struct {
	p, ps *vsa.Automaton // ps is nil for the cover-only check
	s     *Splitter
	pst   []vsa.Status
	atoms []alphabet.Class
	opIdx map[vsa.OpSet]int
	nsym  int
	all   vsa.OpSet
}

func newPolyCtx(p *vsa.Automaton, ps *vsa.Automaton, s *Splitter) (*polyCtx, error) {
	if !p.IsDeterministic() {
		return nil, fmt.Errorf("core: polynomial procedure requires a deterministic spanner")
	}
	if !s.auto.IsDeterministic() {
		return nil, fmt.Errorf("core: polynomial procedure requires a deterministic splitter")
	}
	if ps != nil && !ps.IsDeterministic() {
		return nil, fmt.Errorf("core: polynomial procedure requires a deterministic split-spanner")
	}
	if !s.IsDisjoint() {
		return nil, fmt.Errorf("core: polynomial procedure requires a disjoint splitter")
	}
	pst, err := p.Statuses()
	if err != nil {
		return nil, err
	}
	classes := append(p.Classes(), s.auto.Classes()...)
	if ps != nil {
		classes = append(classes, ps.Classes()...)
	}
	ctx := &polyCtx{
		p: p, ps: ps, s: s,
		pst:   pst,
		atoms: alphabet.Atoms(classes),
		opIdx: map[vsa.OpSet]int{},
		all:   vsa.AllOps(p.Arity()),
	}
	addOp := func(o vsa.OpSet) {
		if o == 0 {
			return
		}
		if _, ok := ctx.opIdx[o]; !ok {
			ctx.opIdx[o] = 2*len(ctx.atoms) + len(ctx.opIdx)
		}
	}
	for _, st := range p.States {
		for _, e := range st.Edges {
			addOp(e.Ops)
		}
		for _, f := range st.Finals {
			addOp(f)
		}
	}
	addOp(ctx.all)
	ctx.nsym = 2*len(ctx.atoms) + len(ctx.opIdx)
	return ctx, nil
}

// lsym returns the symbol of atom i with hull bit b.
func (c *polyCtx) lsym(atom int, bit int) int { return 2*atom + bit }

// atomsOf returns the atom indices contained in class.
func (c *polyCtx) atomsOf(class alphabet.Class) []int {
	var out []int
	for i, a := range c.atoms {
		if class.ContainsClass(a) {
			out = append(out, i)
		}
	}
	return out
}

// buildAPn translates p into the marked-word automaton over tuples with a
// nonempty hull (at least two operation boundaries). The hull bit of a
// letter is derived from p's status after the consuming edge: 1 iff the
// status is strictly between all-unseen and all-closed.
func (c *polyCtx) buildAPn() *automata.NFA {
	n := automata.New(c.nsym)
	p := c.p
	all := vsa.AllClosed(p.Arity())
	base := make([]int, p.NumStates())
	for q := range p.States {
		// A state accepts (word ends after its last letter) iff the empty
		// final batch is available, which requires all-closed status.
		final := false
		for _, f := range p.States[q].Finals {
			if f == 0 {
				final = true
			}
		}
		base[q] = n.AddState(final)
	}
	type mid struct {
		q   int
		ops vsa.OpSet
	}
	mids := map[mid]int{}
	midState := func(q int, ops vsa.OpSet, final bool) int {
		k := mid{q, ops}
		s, ok := mids[k]
		if !ok {
			s = n.AddState(false)
			mids[k] = s
			n.AddEdge(base[q], c.opIdx[ops], s)
		}
		if final {
			n.Final[s] = true
		}
		return s
	}
	bitOf := func(st vsa.Status) int {
		if st == 0 || st == all {
			return 0
		}
		return 1
	}
	for q, st := range p.States {
		for _, e := range st.Edges {
			stAfter := c.pst[e.To]
			if e.Ops == 0 {
				for _, a := range c.atomsOf(e.Class) {
					n.AddEdge(base[q], c.lsym(a, bitOf(stAfter)), base[e.To])
				}
				continue
			}
			// Exclude the single-batch (empty hull) case: status goes from
			// all-unseen to all-closed in one batch.
			if c.pst[q] == 0 && stAfter == all && p.Arity() > 0 {
				continue
			}
			m := midState(q, e.Ops, false)
			for _, a := range c.atomsOf(e.Class) {
				n.AddEdge(m, c.lsym(a, bitOf(stAfter)), base[e.To])
			}
		}
		for _, f := range st.Finals {
			if f == 0 {
				continue // handled via base finals
			}
			if c.pst[q] == 0 {
				continue // single batch at the end: empty hull
			}
			midState(q, f, true)
		}
	}
	n.AddStart(base[p.Start])
	n.DedupeEdges()
	return n
}

// buildAPe translates p into the deterministic automaton over tuples whose
// spans are all empty at a single boundary: words with bit-0 letters and
// exactly one operation symbol, the complete batch.
func (c *polyCtx) buildAPe() *automata.NFA {
	n := automata.New(c.nsym)
	p := c.p
	all := vsa.AllClosed(p.Arity())
	pre := make([]int, p.NumStates())
	post := make([]int, p.NumStates())
	for q := range p.States {
		pre[q] = n.AddState(false)
	}
	for q := range p.States {
		final := false
		for _, f := range p.States[q].Finals {
			if f == 0 {
				final = true
			}
		}
		post[q] = n.AddState(final)
	}
	batchSym := c.opIdx[c.all]
	// One mid state per p-state keeps the automaton deterministic when p
	// is: all complete-batch alternatives from q share it.
	mids := map[int]int{}
	midOf := func(q int) int {
		m, ok := mids[q]
		if !ok {
			m = n.AddState(false)
			mids[q] = m
			n.AddEdge(pre[q], batchSym, m)
		}
		return m
	}
	for q, st := range p.States {
		for _, e := range st.Edges {
			switch {
			case e.Ops == 0:
				for _, a := range c.atomsOf(e.Class) {
					if c.pst[q] == 0 {
						n.AddEdge(pre[q], c.lsym(a, 0), pre[e.To])
					}
					if c.pst[q] == all {
						n.AddEdge(post[q], c.lsym(a, 0), post[e.To])
					}
				}
			case c.pst[q] == 0 && c.pst[e.To] == all:
				// The complete batch, then its letter.
				m := midOf(q)
				for _, a := range c.atomsOf(e.Class) {
					n.AddEdge(m, c.lsym(a, 0), post[e.To])
				}
			}
		}
		for _, f := range st.Finals {
			if f != 0 && c.pst[q] == 0 {
				// Complete batch at the end of the document.
				n.Final[midOf(q)] = true
			}
		}
	}
	n.AddStart(pre[p.Start])
	n.DedupeEdges()
	return n
}

// AS_n modes.
const (
	mPre = iota
	mOpenPre
	mMustOpen
	mInPending
	mInBlock
	mAfterPending
	mOpenPost
	mClosed
)

// buildASn builds the automaton accepting marked words whose (nonempty)
// hull is contained in some split of s. It is unambiguous on the words of
// AP_n because a nonempty hull contains a letter and two disjoint splits
// cannot both contain it.
func (c *polyCtx) buildASn() *automata.NFA {
	n := automata.New(c.nsym)
	sa := c.s.auto
	// A configuration is (mode, S state).
	final := func(mode, qs int) bool {
		for _, f := range sa.States[qs].Finals {
			switch mode {
			case mAfterPending, mOpenPost:
				if splitOpKind(f) == sClose {
					return true
				}
			case mClosed:
				if splitOpKind(f) == sNone {
					return true
				}
			}
		}
		return false
	}
	var x automata.Explorer
	visit := func(mode, qs int) int {
		id, added, _ := x.Visit(int32(mode), int32(qs))
		if added {
			n.AddState(final(mode, qs))
		}
		return int(id)
	}
	n.AddStart(visit(mPre, sa.Start))
	opSyms := make([]int, 0, len(c.opIdx))
	for _, sym := range c.opIdx {
		opSyms = append(opSyms, sym)
	}
	for from := 0; from < x.Len(); from++ {
		k := x.Config(int32(from))
		mode, qs := int(k[0]), int(k[1])
		letter := func(e vsa.Edge, bit, toMode int) {
			to := visit(toMode, e.To)
			for _, a := range c.atomsOf(e.Class) {
				n.AddEdge(from, c.lsym(a, bit), to)
			}
		}
		switch mode {
		case mPre:
			for _, e := range sa.States[qs].Edges {
				switch splitOpKind(e.Ops) {
				case sNone:
					letter(e, 0, mPre)
				case sOpen:
					letter(e, 0, mOpenPre)
				}
			}
			for _, sym := range opSyms {
				n.AddEdge(from, sym, visit(mMustOpen, qs))
			}
		case mMustOpen:
			for _, e := range sa.States[qs].Edges {
				if splitOpKind(e.Ops) == sOpen {
					letter(e, 1, mInBlock)
				}
			}
		case mOpenPre:
			for _, e := range sa.States[qs].Edges {
				if splitOpKind(e.Ops) == sNone {
					letter(e, 0, mOpenPre)
				}
			}
			for _, sym := range opSyms {
				n.AddEdge(from, sym, visit(mInPending, qs))
			}
		case mInPending:
			for _, e := range sa.States[qs].Edges {
				if splitOpKind(e.Ops) == sNone {
					letter(e, 1, mInBlock)
				}
			}
		case mInBlock:
			for _, e := range sa.States[qs].Edges {
				if splitOpKind(e.Ops) == sNone {
					letter(e, 1, mInBlock)
				}
			}
			for _, sym := range opSyms {
				n.AddEdge(from, sym, visit(mInPending, qs))
				n.AddEdge(from, sym, visit(mAfterPending, qs))
			}
		case mAfterPending:
			for _, e := range sa.States[qs].Edges {
				switch splitOpKind(e.Ops) {
				case sNone:
					letter(e, 0, mOpenPost)
				case sClose:
					letter(e, 0, mClosed)
				}
			}
		case mOpenPost:
			for _, e := range sa.States[qs].Edges {
				switch splitOpKind(e.Ops) {
				case sNone:
					letter(e, 0, mOpenPost)
				case sClose:
					letter(e, 0, mClosed)
				}
			}
		case mClosed:
			for _, e := range sa.States[qs].Edges {
				if splitOpKind(e.Ops) == sNone {
					letter(e, 0, mClosed)
				}
			}
		}
	}
	n.DedupeEdges()
	return n
}

// touching cases for the empty-hull boundary.
const (
	caseEmptyAt = iota // split is the empty span at the boundary
	caseStartsAt
	caseEndsAt
	caseStrict
	numCases
)

// containsViaUnion decides L(a) ⊆ L(b₁) ∪ … ∪ L(b_k) in polynomial time
// for unambiguous a and pairwise-possibly-overlapping unambiguous b_i by
// inclusion–exclusion over accepting-path counts: the indicator series
// #a − Σ_{∅≠T} (−1)^{|T|+1} #(a × Π_{i∈T} b_i) is pointwise nonnegative
// and zero exactly on containment. Empty automata are pruned first.
func containsViaUnion(a *automata.NFA, bs []*automata.NFA) bool {
	at := a.Trim()
	if at.Len() == 0 {
		return true
	}
	var live []*automata.NFA
	for _, b := range bs {
		bt := b.Trim()
		if bt.Len() > 0 {
			live = append(live, bt)
		}
	}
	if len(live) == 0 {
		return false
	}
	series := &automata.Series{Terms: []automata.Term{{Coef: 1, A: at}}}
	for mask := 1; mask < 1<<len(live); mask++ {
		prod := at
		bits := 0
		for i, b := range live {
			if mask&(1<<i) != 0 {
				bits++
				prod = automata.Product(prod, b)
			}
		}
		prod = prod.Trim()
		if prod.Len() == 0 {
			continue
		}
		coef := int64(-1)
		if bits%2 == 0 {
			coef = 1
		}
		series.Terms = append(series.Terms, automata.Term{Coef: coef, A: prod})
	}
	return series.IsZeroNonnegative()
}

// CoverConditionPoly decides the cover condition in polynomial time for a
// deterministic functional spanner and a deterministic functional disjoint
// splitter (Lemma 5.6). An error is returned when the preconditions do
// not hold; callers can then fall back to CoverCondition.
func CoverConditionPoly(p *vsa.Automaton, s *Splitter) (bool, error) {
	if p.Arity() == 0 {
		return coverBoolean(p, s, 0)
	}
	ctx, err := newPolyCtx(p, nil, s)
	if err != nil {
		return false, err
	}
	return ctx.coverPoly(), nil
}

func (c *polyCtx) coverPoly() bool {
	apn := c.buildAPn()
	asn := c.buildASn()
	if !automata.ContainsUnambiguous(apn, asn, false) {
		return false
	}
	ape := c.buildAPe()
	pv := universal(c.p.Vars)
	cases := make([]*automata.NFA, numCases)
	for k := 0; k < numCases; k++ {
		cases[k] = c.buildSplitCase(pv, k)
	}
	return containsViaUnion(ape, cases)
}
