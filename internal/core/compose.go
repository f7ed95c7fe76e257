package core

import (
	"fmt"

	"repro/internal/span"
	"repro/internal/vsa"
)

// Compose builds an automaton for the spanner P_S ∘ S of Section 3: on
// every document, evaluate ps on each substring selected by s and shift
// the results. This is the polynomial-time construction of Lemma C.2
// (algebraically, π_{SVars(P_S)}((Σ*·x{P_S}·Σ*) ⋈ S)), realized directly
// on extended automata with three phases — before the selected split,
// inside it (a product of s and ps), and after it. The construction is
// also Lemma 6.1 when ps is itself unary (composition of splitters).
func Compose(ps *vsa.Automaton, s *Splitter) *vsa.Automaton {
	if err := ps.Validate(); err != nil {
		panic(fmt.Sprintf("core: Compose: invalid split-spanner: %v", err))
	}
	sa := s.auto
	out := vsa.NewAutomaton(ps.Vars...)

	// State interning: phase 1 and 3 hold a splitter state, phase 2 a
	// (splitter, split-spanner) pair. id is indexed by
	// [phase-1][qs][qp+1] (qp is -1 outside phase 2) and holds the
	// output state + 1, 0 while unseen; keys[i] is output state i's key,
	// so the queue is the output states in order.
	type key struct {
		phase  int
		qs, qp int
	}
	ns, np := len(sa.States), len(ps.States)+1
	id := make([]int32, 3*ns*np)
	var keys []key
	intern := func(k key) int {
		slot := &id[((k.phase-1)*ns+k.qs)*np+k.qp+1]
		if *slot == 0 {
			if len(keys) > 0 {
				out.AddState()
			}
			keys = append(keys, k)
			*slot = int32(len(keys))
		}
		return int(*slot) - 1
	}
	intern(key{1, sa.Start, -1})
	var edges []vsa.Edge // every state's edges, back to back in state order
	for from := 0; from < len(keys); from++ {
		k, lo := keys[from], len(edges)
		switch k.phase {
		case 1: // before the split
			for _, e := range sa.States[k.qs].Edges {
				switch splitOpKind(e.Ops) {
				case sNone:
					edges = append(edges, vsa.Edge{Class: e.Class, To: intern(key{1, e.To, -1})})
				case sOpen:
					// The split starts here; ps consumes the same byte.
					for _, f := range ps.States[ps.Start].Edges {
						cls := e.Class.Intersect(f.Class)
						if cls.IsEmpty() {
							continue
						}
						edges = append(edges, vsa.Edge{Ops: f.Ops, Class: cls, To: intern(key{2, e.To, f.To})})
					}
				case sWrap:
					// An empty split at this boundary; ps must accept ε.
					for _, f0 := range ps.States[ps.Start].Finals {
						edges = append(edges, vsa.Edge{Ops: f0, Class: e.Class, To: intern(key{3, e.To, -1})})
					}
				}
			}
			for _, fin := range sa.States[k.qs].Finals {
				if splitOpKind(fin) == sWrap {
					// Empty split at the end of the document.
					for _, f0 := range ps.States[ps.Start].Finals {
						out.AddFinal(from, f0)
					}
				}
			}
		case 2: // inside the split
			for _, e := range sa.States[k.qs].Edges {
				switch splitOpKind(e.Ops) {
				case sNone:
					for _, f := range ps.States[k.qp].Edges {
						cls := e.Class.Intersect(f.Class)
						if cls.IsEmpty() {
							continue
						}
						edges = append(edges, vsa.Edge{Ops: f.Ops, Class: cls, To: intern(key{2, e.To, f.To})})
					}
				case sClose:
					// The split ends at this boundary: ps must accept, and
					// its final operations fire here; the consumed byte is
					// the first one after the split.
					for _, f0 := range ps.States[k.qp].Finals {
						edges = append(edges, vsa.Edge{Ops: f0, Class: e.Class, To: intern(key{3, e.To, -1})})
					}
				}
			}
			for _, fin := range sa.States[k.qs].Finals {
				if splitOpKind(fin) == sClose {
					// Split ends exactly at the end of the document.
					for _, f0 := range ps.States[k.qp].Finals {
						out.AddFinal(from, f0)
					}
				}
			}
		case 3: // after the split
			for _, e := range sa.States[k.qs].Edges {
				if splitOpKind(e.Ops) == sNone {
					edges = append(edges, vsa.Edge{Class: e.Class, To: intern(key{3, e.To, -1})})
				}
			}
			for _, fin := range sa.States[k.qs].Finals {
				if splitOpKind(fin) == sNone {
					out.AddFinal(from, 0)
				}
			}
		}
		out.States[from].Edges = edges[lo:]
	}
	// Every state's edges now lie in the final backing array.
	for q, st := range out.States {
		out.States[q].Edges, edges = edges[:len(st.Edges):len(st.Edges)], edges[len(st.Edges):]
	}
	out.MergeEdges()
	return out
}

// ComposeBrute evaluates (ps ∘ s)(doc) by the definition in Section 3:
// the union over all splits of the shifted evaluation of ps on each
// segment. It is the executable specification against which Compose is
// verified.
func ComposeBrute(ps *vsa.Automaton, s *Splitter, doc string) *span.Relation {
	out := span.NewRelation(ps.Vars...)
	for _, sp := range s.Split(doc) {
		seg := sp.In(doc)
		for _, t := range ps.Eval(seg).Tuples {
			out.Add(t.Shift(sp))
		}
	}
	out.Dedupe()
	return out
}
