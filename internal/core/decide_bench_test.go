package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/library"
	"repro/internal/vsa"
)

// decide is the sequence a cold plan compilation runs on a (spanner,
// splitter) pair — and the one bench/'s core.decide_us row times:
// NewSplitter, disjointness, locality, self-splittability.
func decide(tb testing.TB, p, sAuto *vsa.Automaton) {
	s, err := core.NewSplitter(sAuto)
	if err != nil {
		tb.Fatal(err)
	}
	if s.IsDisjoint() {
		if _, err := s.IsLocal(0); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := core.SelfSplittable(p, s, 0); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkDecide runs the decision procedures of one cold plan on the
// plan-churn pair (NegativeSentiment × sentence splitter), each
// iteration on freshly compiled automata (compilation is not timed), so
// the ledger's core.decide_us row can be profiled without the harness:
//
//	go test -run='^$' -bench=Decide -cpuprofile=cpu.out ./internal/core/
//
// Plan is the whole sequence a cold plan runs. General is its
// self-splittability verdict alone, on the general procedure every plan
// takes; and DeterminizeThenPoly is the route Theorem 5.7 offers
// instead: determinize P and S (Proposition 4.4), then SplitCorrectPoly.
// Both legs start from a fresh splitter, so both pay its disjointness.
func BenchmarkDecide(b *testing.B) {
	legs := []struct {
		name   string
		decide func(tb testing.TB, p, sAuto *vsa.Automaton)
	}{
		{"Plan", decide},
		{"General", func(tb testing.TB, p, sAuto *vsa.Automaton) {
			if ok, err := core.SplitCorrect(p, p, core.MustSplitter(sAuto), 0); err != nil || !ok {
				tb.Fatalf("SplitCorrect = (%v, %v), want (true, nil)", ok, err)
			}
		}},
		{"DeterminizeThenPoly", func(tb testing.TB, p, sAuto *vsa.Automaton) {
			pd, err1 := p.Determinize(0)
			sd, err2 := sAuto.Determinize(0)
			if err1 != nil || err2 != nil {
				tb.Fatal(err1, err2)
			}
			if ok, err := core.SplitCorrectPoly(pd, pd, core.MustSplitter(sd)); err != nil || !ok {
				tb.Fatalf("SplitCorrectPoly = (%v, %v), want (true, nil)", ok, err)
			}
		}},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := library.NegativeSentiment()
				sAuto := library.Sentences().Automaton()
				b.StartTimer()
				leg.decide(b, p, sAuto)
			}
		})
	}
}

// TestSelfSplittableAllocs pins the bookkeeping cost of one
// self-splittability verdict on the plan-churn pair. The search itself
// is PSPACE-hard in general; what is pinned here is that a verdict on
// 11-state automata does not pay a formatted key and a map per subset
// step. Before the shared subset table the same call made 3 306
// allocations, 708 before Compose, the symbol table and the word NFAs
// moved to flat tables, and 214 before automata.SetTable dropped its
// string keys; the bound is the 126 it makes since, plus 10 %.
func TestSelfSplittableAllocs(t *testing.T) {
	p := library.NegativeSentiment()
	s := library.Sentences()
	s.IsDisjoint() // memoized; not part of the verdict's cost
	const parent, bound = 214, 139
	got := testing.AllocsPerRun(20, func() {
		ok, err := core.SelfSplittable(p, s, 0)
		if err != nil || !ok {
			t.Fatalf("SelfSplittable = (%v, %v), want (true, nil)", ok, err)
		}
	})
	t.Logf("SelfSplittable(sentiment, sentences): %.0f allocs (parent %d)", got, parent)
	if got > bound {
		t.Fatalf("SelfSplittable allocates %.0f times, want ≤ %d", got, bound)
	}
}
