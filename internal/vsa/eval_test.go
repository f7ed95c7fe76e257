package vsa

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/span"
)

// checkExit evaluates a on doc as Eval and as EvalAppend into a fresh
// relation, both of which must agree with EvalReference — EvalAppend
// before any Dedupe, since one run exists per tuple even on the uncached
// step — and returns the reference relation. Both evaluations run on a
// session of a's own Multi of one, the one Automaton.Eval uses, counting
// into rec.
func checkExit(t *testing.T, a *Automaton, doc string, rec *Record) *span.Relation {
	t.Helper()
	want := a.EvalReference(doc)
	s := a.localizer().one.NewSession(rec)
	defer s.Close()
	if got := s.Eval(doc)[0]; !got.Equal(want) {
		t.Fatalf("Eval differs from EvalReference: %d tuples, want %d", got.Len(), want.Len())
	}
	rel := span.NewRelation(a.Vars...)
	s.EvalAppend(doc, span.Span{Start: 1, End: len(doc) + 1}, func(int) *span.Relation { return rel }, nil)
	if rel.Len() != want.Len() {
		t.Fatalf("EvalAppend appended %d tuples, EvalReference finds %d", rel.Len(), want.Len())
	}
	return want
}

// seedBlowup builds Σ*·a·(a|b)^k·x{c}·Σ*: the status-0 subset at a 'c'
// remembers which of the k+1 bytes before it were an 'a', so documents
// that spell out every such pattern give every window its own seed, and
// the whole-document walk its own subset per pattern prefix.
func seedBlowup(k int) *Automaton {
	a := NewAutomaton("x")
	a.AddEdge(0, 0, alphabet.Any, 0)
	prev := a.AddState()
	a.AddEdge(0, 0, alphabet.Of('a'), prev)
	for i := 0; i < k; i++ {
		next := a.AddState()
		a.AddEdge(prev, 0, alphabet.Of('a', 'b'), next)
		prev = next
	}
	open := a.AddState()
	a.AddEdge(prev, Open(0), alphabet.Of('c'), open)
	a.AddFinal(open, Close(0))
	post := a.AddState()
	a.AddEdge(open, Close(0), alphabet.Any, post)
	a.AddEdge(post, 0, alphabet.Any, post)
	a.AddFinal(post, 0)
	return a
}

// TestTagDFAOverflow takes the tag DFA to its state bound, as
// TestEvalBoolOverflow does the scan DFA's, on a document that spells
// every k-bit a/b pattern after an 'a' and before a 'c'. Alone, the
// automaton overflows its scan DFA too, and the whole-document walk
// meets the tag DFA's bound after emitting tuples: the rerun drops them
// and re-emits each once. In a group of three (a scan bound three times
// as large) the scan holds, and windows whose seeds no longer fit step
// uncached. Every answer must be EvalReference's, and the exit counts as
// a fallback.
func TestTagDFAOverflow(t *testing.T) {
	const k = 12
	var b strings.Builder
	for i := 0; i < 1<<k; i++ {
		b.WriteByte('a')
		for j := 0; j < k; j++ {
			b.WriteByte("ab"[i>>j&1])
		}
		b.WriteByte('c')
	}
	doc := b.String()

	a := seedBlowup(k)
	var em Record
	if want := checkExit(t, a, doc, &em); want.Len() != 1<<k {
		t.Fatalf("EvalReference finds %d tuples, want one per pattern (%d)", want.Len(), 1<<k)
	}
	if n := a.tag().dfa.Len(); n < maxDFAStates {
		t.Fatalf("the tag DFA holds %d states, below its bound of %d: no overflow", n, maxDFAStates)
	}
	if em[Fallbacks] == 0 {
		t.Fatal("the evaluation took no exit")
	}

	a = seedBlowup(k)
	m := NewMulti(a, a, a)
	var mm Record
	want := a.EvalReference(doc)
	for i, got := range evalInto(m, doc, &mm) {
		if !got.Equal(want) {
			t.Fatalf("member %d: %d tuples, EvalReference finds %d", i, got.Len(), want.Len())
		}
	}
	if mm[FusedPasses] != 1 || mm[MemberFallbacks] != 0 {
		t.Fatalf("the group of three did not finish its pass: %d fused passes, %d members handed down",
			mm[FusedPasses], mm[MemberFallbacks])
	}
	if n := a.tag().dfa.Len(); n < maxDFAStates {
		t.Fatalf("windowed: the tag DFA holds %d states, below its bound of %d", n, maxDFAStates)
	}
}

// TestTagSymbolsPast256: an automaton whose edges carry more than 256
// (byte class, op-set) pairs gets no tag DFA — lazydfa indexes rows by a
// byte — and every window steps uncached. Σ*·x{.}·q·Σ*, with the Σ*
// before x spelled as 256 one-byte edges: every byte is its own class,
// and each carries both ∅ and x⊢.
func TestTagSymbolsPast256(t *testing.T) {
	a := NewAutomaton("x")
	for c := 0; c < 256; c++ {
		a.AddEdge(0, 0, alphabet.Of(byte(c)), 0)
	}
	open := a.AddState()
	a.AddEdge(0, Open(0), alphabet.Any, open)
	post := a.AddState()
	a.AddEdge(open, Close(0), alphabet.Of('q'), post)
	a.AddEdge(post, 0, alphabet.Any, post)
	a.AddFinal(post, 0)

	rng := rand.New(rand.NewSource(5))
	doc := make([]byte, 8<<10)
	for i := range doc {
		doc[i] = byte(rng.Intn(256))
		if i%97 == 0 {
			doc[i] = 'q'
		}
	}
	var em Record
	if want := checkExit(t, a, string(doc), &em); want.Len() < 80 {
		t.Fatalf("EvalReference finds %d tuples, want one per q", want.Len())
	}
	if tp := a.tag(); tp.dfa != nil || len(tp.ops) <= 256 {
		t.Fatalf("%d symbols, DFA built = %v: want more than 256 and none", len(tp.ops), tp.dfa != nil)
	}
	if !a.localizer().ok || em[Windows] == 0 {
		t.Fatal("the automaton did not evaluate in windows")
	}
	if got := em[Fallbacks]; got != 2 {
		t.Fatalf("%d fallbacks counted, want one per evaluation (2)", got)
	}
}
