package vsa_test

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/library"
	"repro/internal/regexformula"
	"repro/internal/vsa"
)

// fixedAutomata builds the automata of known shape the subset
// constructions are checked on: the library's extractors and splitters
// (NegativeSentiment and Sentences are the benchmark's spanner and
// splitter), the benchmark's sixteen batch spanners and the pipeline
// formulas.
func fixedAutomata() []*vsa.Automaton {
	out := []*vsa.Automaton{
		library.Emails(), library.Phones(), library.Names(),
		library.FinanceEvents(), library.NegativeSentiment(),
		library.Sentences().Automaton(), library.Paragraphs().Automaton(),
		library.Tokens().Automaton(), library.NGrams(2).Automaton(),
		library.HTTPRequests().Automaton(),
	}
	for _, w := range []string{
		"bad", "the", "of", "and", "a", "to", "in", "is",
		"was", "he", "for", "it", "with", "as", "his", "on",
	} {
		out = append(out, regexformula.MustCompile(`(.*[ .!?\n])?`+w+` (y{[a-z]+})(([^a-z].*)?|)`))
	}
	for _, src := range pipelineFormulas {
		out = append(out, regexformula.MustCompile(src))
	}
	return out
}

// randomClassFormula generates a random formula over the bytes a and b,
// the wildcard and a negated class, with up to two variables: wildcards
// give states that consume every byte, hence suffix-universal ones, which
// the a/b formulas of randomFormula never have.
func randomClassFormula(rng *rand.Rand, depth int) string {
	leaves := []string{"a", "b", ".", "[^a]", ".*"}
	if depth == 0 {
		return leaves[rng.Intn(len(leaves))]
	}
	switch rng.Intn(6) {
	case 0, 1:
		return randomClassFormula(rng, depth-1) + randomClassFormula(rng, depth-1)
	case 2:
		return "(" + randomClassFormula(rng, depth-1) + "|" + randomClassFormula(rng, depth-1) + ")"
	case 3:
		return "(" + randomClassFormula(rng, depth-1) + ")*"
	case 4:
		inner := randomClassFormula(rng, depth-1)
		for _, v := range []string{"x", "y"} {
			if !strings.Contains(inner, v+"{") {
				return v + "{" + inner + "}"
			}
		}
		return inner
	default:
		return leaves[rng.Intn(len(leaves))]
	}
}

// subsetInput returns the automaton seed draws from a generator family:
// 0 randomAutomaton, 1 randomFormula, 2 randomClassFormula, 3 the fixed
// automata.
func subsetInput(t *testing.T, family uint8, seed int64) *vsa.Automaton {
	rng := rand.New(rand.NewSource(seed))
	switch family % 4 {
	case 0:
		return vsa.RandomAutomaton(rng)
	case 1, 2:
		src := randomFormula(rng, 1+rng.Intn(4))
		if family%4 == 2 {
			src = randomClassFormula(rng, 1+rng.Intn(4))
		}
		a, err := regexformula.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return a
	default:
		fixed := fixedAutomata()
		return fixed[int(uint64(seed)%uint64(len(fixed)))]
	}
}

// checkSubsetConstructions holds Determinize and the suffix-universality
// vector to the string-keyed constructions they replaced: the same
// universality vector; the same number of deterministic states, a
// deterministic result equivalent to the reference's with no more edges;
// and ErrTooLarge at the same limits.
func checkSubsetConstructions(t *testing.T, a *vsa.Automaton) {
	t.Helper()
	want := a.SuffixUniversalityReference()
	if got := a.SuffixUniversal(); !slices.Equal(got, want) {
		t.Fatalf("SuffixUniversal = %v, reference %v\n%s", got, want, a)
	}
	ref, err := a.DeterminizeReference(0)
	if err != nil {
		t.Fatalf("DeterminizeReference: %v\n%s", err, a)
	}
	d, err := a.Determinize(0)
	if err != nil {
		t.Fatalf("Determinize: %v\n%s", err, a)
	}
	if d.NumStates() != ref.NumStates() || d.NumEdges() > ref.NumEdges() || !d.IsDeterministic() {
		t.Fatalf("Determinize: %d states, %d edges, deterministic %v; reference %d states, %d edges\n%s",
			d.NumStates(), d.NumEdges(), d.IsDeterministic(), ref.NumStates(), ref.NumEdges(), a)
	}
	if eq, err := vsa.Equivalent(d, ref, 0); err != nil || !eq {
		t.Fatalf("Equivalent(Determinize, reference) = %v, %v\n%s", eq, err, a)
	}
	for _, k := range []int{ref.NumStates(), ref.NumStates() - 1, 1} {
		if k < 1 {
			continue
		}
		_, err := a.Determinize(k)
		_, refErr := a.DeterminizeReference(k)
		if err != refErr || k < ref.NumStates() && !errors.Is(err, automata.ErrTooLarge) {
			t.Fatalf("Determinize(%d) = %v, reference %v\n%s", k, err, refErr, a)
		}
	}
}

// FuzzSubsetConstructionsVsReference: Determinize (Proposition 4.4) and
// suffix universality, both walks of automata.Subsets, against the
// string-keyed constructions they replaced, on random functional automata
// and on compiled formulas — random ones and the library's and
// benchmark's.
func FuzzSubsetConstructionsVsReference(f *testing.F) {
	for family := uint8(0); family < 4; family++ {
		for seed := int64(0); seed < 4; seed++ {
			f.Add(family, seed)
		}
	}
	f.Fuzz(func(t *testing.T, family uint8, seed int64) {
		checkSubsetConstructions(t, subsetInput(t, family, seed))
	})
}

// TestSubsetConstructionsVsReference runs the fuzz target's check over a
// fixed corpus of 5 000 random inputs — 2 000 random automata, 1 500
// formulas of each random family — and every fixed automaton.
func TestSubsetConstructionsVsReference(t *testing.T) {
	var corpus []*vsa.Automaton
	for family, n := range []int64{2000, 1500, 1500} {
		for seed := int64(0); seed < n; seed++ {
			corpus = append(corpus, subsetInput(t, uint8(family), seed))
		}
	}
	corpus = append(corpus, fixedAutomata()...)
	universal := 0
	for _, a := range corpus {
		checkSubsetConstructions(t, a)
		for _, u := range a.SuffixUniversal() {
			if u {
				universal++
			}
		}
	}
	t.Logf("%d automata, %d suffix-universal states", len(corpus), universal)
	if universal == 0 {
		t.Fatal("no suffix-universal state in the corpus: the universality check proves nothing")
	}
}
