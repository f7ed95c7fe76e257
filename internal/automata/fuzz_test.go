package automata

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// containsReference is Contains as it was before the decision procedures
// moved onto the shared Subsets table: subsets are keyed by a formatted
// string, every successor is recomputed with a map, product nodes are
// (state, key) pairs. It is kept here — in a test file only — as the
// oracle for the three things the rewrite must not change: the verdict,
// the witness (same BFS order, so the same shortest word) and the node
// count at which limit turns into ErrTooLarge.
func containsReference(a, b *NFA, limit int) (ok bool, witness []int, err error) {
	key := func(set []int) string {
		var sb strings.Builder
		for _, q := range set {
			fmt.Fprintf(&sb, "%x,", q)
		}
		return sb.String()
	}
	succ := func(set []int, sym int) []int {
		mark := map[int]bool{}
		for _, q := range set {
			for _, e := range b.Adj[q] {
				if e.Sym == sym {
					mark[e.To] = true
				}
			}
		}
		out := make([]int, 0, len(mark))
		for q := range mark {
			out = append(out, q)
		}
		sort.Ints(out)
		return out
	}
	anyFinal := func(set []int) bool {
		return slices.ContainsFunc(set, func(q int) bool { return b.Final[q] })
	}
	type node struct {
		p   int
		set string
	}
	type entry struct {
		p    int
		set  []int
		prev int
		sym  int
	}
	seen := map[node]bool{}
	var bfs []entry
	bStart := slices.Clone(b.Starts)
	sort.Ints(bStart)
	bStart = slices.Compact(bStart)
	for _, s := range a.Starts {
		if n := (node{s, key(bStart)}); !seen[n] {
			seen[n] = true
			bfs = append(bfs, entry{s, bStart, -1, -1})
		}
	}
	for i := 0; i < len(bfs); i++ {
		p, set := bfs[i].p, bfs[i].set
		if a.Final[p] && !anyFinal(set) {
			for j := i; bfs[j].sym >= 0; j = bfs[j].prev {
				witness = append(witness, bfs[j].sym)
			}
			slices.Reverse(witness)
			return false, witness, nil
		}
		for _, e := range a.Adj[p] {
			next := succ(set, e.Sym)
			n := node{e.To, key(next)}
			if seen[n] {
				continue
			}
			if len(seen) >= limit {
				return false, nil, ErrTooLarge
			}
			seen[n] = true
			bfs = append(bfs, entry{e.To, next, i, e.Sym})
		}
	}
	return true, nil, nil
}

// FuzzContainsVsEnumeration checks the subset-construction procedures on
// random NFA pairs against two independent oracles. Against bounded
// language enumeration: the containment verdict is right, a returned
// witness is accepted by a, rejected by b and no shorter word separates
// them, and Determinize yields a deterministic, complete automaton with
// the same language. Against containsReference: verdict, witness and the
// ErrTooLarge boundary under a small limit are identical.
func FuzzContainsVsEnumeration(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(5), uint8(0))
	f.Add(int64(4), uint8(2), uint8(5), uint8(3))
	f.Add(int64(7), uint8(3), uint8(6), uint8(9))
	f.Add(int64(42), uint8(1), uint8(8), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, syms, states, limit uint8) {
		numSymbols := int(syms%3) + 1
		maxStates := int(states%6) + 1
		// Words over numSymbols up to maxLen: at most 3^6 = 729.
		maxLen := 6
		rng := rand.New(rand.NewSource(seed))
		a := randomNFA(rng, numSymbols, maxStates)
		b := randomNFA(rng, numSymbols, maxStates)
		// Extra start states exercise the start-subset interning and the
		// roots of the product search.
		for i := rng.Intn(3); i > 0; i-- {
			a.AddStart(rng.Intn(a.Len()))
			b.AddStart(rng.Intn(b.Len()))
		}
		wa, wb := enumerate(a, maxLen), enumerate(b, maxLen)

		ok, witness, err := Contains(a, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		refOK, refWitness, _ := containsReference(a, b, DefaultLimit)
		if ok != refOK || !slices.Equal(witness, refWitness) {
			t.Fatalf("Contains = (%v, %v), reference = (%v, %v)", ok, witness, refOK, refWitness)
		}
		separated := func(w string) bool { return wa[w] && !wb[w] }
		for w := range wa {
			if separated(w) && (ok || len(w) < len(witness)) {
				t.Fatalf("Contains = (%v, %v) but %q is in L(a) and not in L(b)", ok, witness, w)
			}
		}
		if !ok && (!a.Accepts(witness) || b.Accepts(witness)) {
			t.Fatalf("witness %v is not a counterexample", witness)
		}

		if k := int(limit); k > 0 {
			ok, witness, err := Contains(a, b, k)
			refOK, refWitness, refErr := containsReference(a, b, k)
			if ok != refOK || err != refErr || !slices.Equal(witness, refWitness) {
				t.Fatalf("limit %d: Contains = (%v, %v, %v), reference = (%v, %v, %v)",
					k, ok, witness, err, refOK, refWitness, refErr)
			}
		}

		d, err := a.Determinize(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Starts) != 1 {
			t.Fatalf("Determinize: %d start states", len(d.Starts))
		}
		for q, es := range d.Adj {
			var out []int
			for _, e := range es {
				out = append(out, e.Sym)
			}
			sort.Ints(out)
			for sym := 0; sym < numSymbols; sym++ {
				if len(out) != numSymbols || out[sym] != sym {
					t.Fatalf("Determinize: state %d has edges on %v, want one per symbol", q, out)
				}
			}
		}
		if wd := enumerate(d, maxLen); len(wd) != len(wa) {
			t.Fatalf("Determinize changed the language: %d vs %d words of length ≤ %d", len(wd), len(wa), maxLen)
		} else {
			for w := range wa {
				if !wd[w] {
					t.Fatalf("Determinize lost %q", w)
				}
			}
		}
		if eq, err := Equivalent(a, d, 0); err != nil || !eq {
			t.Fatalf("Equivalent(a, Determinize(a)) = (%v, %v)", eq, err)
		}
		if k := int(limit); k > 0 {
			_, err := a.Determinize(k)
			if want := d.Len() > k; (err == ErrTooLarge) != want || (err != nil && err != ErrTooLarge) {
				t.Fatalf("Determinize(limit %d) of a %d-subset automaton: err = %v", k, d.Len(), err)
			}
		}
	})
}
