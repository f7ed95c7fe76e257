package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/library"
	"repro/internal/regexformula"
	"repro/internal/vsa"
)

// wordNFARef is the map-interned word-NFA translation: one op-expecting
// state per state of a, then a byte-expecting state per (state, ops)
// pair on first use, edges appended one at a time. It is the oracle the
// flat-table vsa.WordNFA is held to; its atoms are recomputed from
// tab.AtomsList, not read from tab.AtomSyms.
func wordNFARef(a *vsa.Automaton, tab *vsa.SymTab) *automata.NFA {
	n := automata.New(tab.NumSymbols())
	base := make([]int, len(a.States))
	for q := range a.States {
		base[q] = n.AddState(false)
	}
	type mid struct {
		q   int
		ops vsa.OpSet
	}
	mids := map[mid]int{}
	midState := func(q int, ops vsa.OpSet, final bool) int {
		k := mid{q, ops}
		if s, ok := mids[k]; ok {
			if final {
				n.Final[s] = true
			}
			return s
		}
		s := n.AddState(final)
		mids[k] = s
		n.AddEdge(base[q], tab.OpSym(ops), s)
		return s
	}
	for q, s := range a.States {
		for _, e := range s.Edges {
			m := midState(q, e.Ops, false)
			for sym, atom := range tab.AtomsList {
				if e.Class.ContainsClass(atom) {
					n.AddEdge(m, sym, base[e.To])
				}
			}
		}
		for _, f := range s.Finals {
			midState(q, f, true)
		}
	}
	n.AddStart(base[a.Start])
	n.DedupeEdges()
	return n
}

// mergeEdgesRef is the map-keyed MergeEdges: classes unioned per
// (ops, target), in order of first appearance.
func mergeEdgesRef(a *vsa.Automaton) {
	for q := range a.States {
		type k struct {
			ops vsa.OpSet
			to  int
		}
		merged := map[k]alphabet.Class{}
		var order []k
		for _, e := range a.States[q].Edges {
			kk := k{e.Ops, e.To}
			if _, ok := merged[kk]; !ok {
				order = append(order, kk)
			}
			merged[kk] = merged[kk].Union(e.Class)
		}
		es := make([]vsa.Edge, 0, len(order))
		for _, kk := range order {
			es = append(es, vsa.Edge{Ops: kk.ops, Class: merged[kk], To: kk.to})
		}
		a.States[q].Edges = es
	}
}

// builderCorpus returns the library's automata, 500 random unary
// formulas compiled, and the compositions of random split-spanners with
// the library's splitters and with random splitters.
func builderCorpus(t *testing.T) []*vsa.Automaton {
	splitters := []*core.Splitter{library.Sentences(), library.Paragraphs(), library.Tokens(), library.NGrams(2), library.HTTPRequests()}
	var out []*vsa.Automaton
	for _, s := range splitters {
		out = append(out, s.Automaton())
	}
	out = append(out, library.Emails(), library.Phones(), library.Names(), library.FinanceEvents(), library.NegativeSentiment())
	rng := rand.New(rand.NewSource(35))
	compiled := 0
	for compiled < 500 {
		a, err := regexformula.Compile(core.RandomUnaryFormula(rng, "y", 1+rng.Intn(3)))
		if err != nil || a.Arity() != 1 {
			continue
		}
		compiled++
		out = append(out, a)
		sAuto, err := regexformula.Compile(core.RandomUnaryFormula(rng, "x", 1+rng.Intn(2)))
		if err != nil || sAuto.Arity() != 1 {
			continue
		}
		s, err := core.NewSplitter(sAuto)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, core.Compose(a, s), core.Compose(a, splitters[compiled%len(splitters)]))
	}
	return out
}

// TestWordNFAMatchesMapOracle holds vsa.WordNFA to wordNFARef — equal
// states, starts, finals and sorted edges — on one automaton's table and
// on a pair's shared table, and checks that determinism is preserved.
func TestWordNFAMatchesMapOracle(t *testing.T) {
	corpus := builderCorpus(t)
	for i, a := range corpus {
		for _, tab := range []*vsa.SymTab{vsa.NewSymTab(a), vsa.NewSymTab(corpus[(i+1)%len(corpus)], a)} {
			got, want := a.WordNFA(tab), wordNFARef(a, tab)
			if got.NumSymbols != want.NumSymbols || !slices.Equal(got.Starts, want.Starts) ||
				!slices.Equal(got.Final, want.Final) || len(got.Adj) != len(want.Adj) {
				t.Fatalf("automaton %d: word NFA shape differs from the oracle:\n%v", i, a)
			}
			for q := range want.Adj {
				if !slices.Equal(got.Adj[q], want.Adj[q]) {
					t.Fatalf("automaton %d, state %d: edges %v, oracle %v\n%v", i, q, got.Adj[q], want.Adj[q], a)
				}
			}
			if a.IsDeterministic() && !got.IsDeterministic() {
				t.Fatalf("automaton %d: deterministic automaton, nondeterministic word NFA\n%v", i, a)
			}
		}
	}
}

// TestMergeEdgesMatchesMapOracle holds MergeEdges to mergeEdgesRef on
// the corpus with every edge cut into two parallel edges (a random part
// of its class and the rest) and some edges repeated, so that every
// state has parallel edges to merge: the edge order and classes must be
// equal.
func TestMergeEdgesMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3535))
	for i, a := range builderCorpus(t) {
		cut := a.Clone()
		for q, s := range cut.States {
			var es []vsa.Edge
			for _, e := range s.Edges {
				r := alphabet.Class{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
				es = append(es, vsa.Edge{Ops: e.Ops, Class: e.Class.Intersect(r), To: e.To})
				if rng.Intn(4) == 0 {
					es = append(es, es[rng.Intn(len(es))])
				}
				es = append(es, vsa.Edge{Ops: e.Ops, Class: e.Class.Minus(r), To: e.To})
			}
			rng.Shuffle(len(es), func(x, y int) { es[x], es[y] = es[y], es[x] })
			cut.States[q].Edges = es
		}
		got, want := cut.Clone(), cut.Clone()
		got.MergeEdges()
		mergeEdgesRef(want)
		for q := range want.States {
			if !slices.Equal(got.States[q].Edges, want.States[q].Edges) {
				t.Fatalf("automaton %d, state %d: merged %v, oracle %v", i, q, got.States[q].Edges, want.States[q].Edges)
			}
		}
	}
}
