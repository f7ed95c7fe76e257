package vsa_test

import (
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/library"
	"repro/internal/regexformula"
	"repro/internal/span"
	"repro/internal/vsa"
)

// TestEvalAppendMatchesEvalShiftAll checks the accumulator form against
// the composition it replaces on the split-evaluation hot path:
// EvalAppend(doc, by, rel, arena) must append exactly
// Eval(doc).ShiftAll(by)'s tuples, for segments at different offsets,
// with and without an arena, accumulating across calls.
func TestEvalAppendMatchesEvalShiftAll(t *testing.T) {
	p := regexformula.MustCompile(".*[ .]y{bad ([a-z]+)}[ .].*|y{bad ([a-z]+)}[ .].*")
	whole := "bad tea. some filler text. bad coffee here. nothing. bad x."
	segments := []span.Span{
		span.FromByteOffsets(0, 8),
		span.FromByteOffsets(9, 26),
		span.FromByteOffsets(27, 44),
		span.FromByteOffsets(45, len(whole)),
	}
	for _, useArena := range []bool{false, true} {
		var arena *span.TupleArena
		if useArena {
			arena = new(span.TupleArena)
		}
		acc := span.NewRelation(p.Vars...)
		want := span.NewRelation(p.Vars...)
		for _, by := range segments {
			seg := by.In(whole)
			p.EvalAppend(seg, by, acc, arena)
			sub := p.Eval(seg).ShiftAll(by)
			want.Tuples = append(want.Tuples, sub.Tuples...)
		}
		acc.Dedupe()
		want.Dedupe()
		if !acc.Equal(want) {
			t.Fatalf("arena=%v: EvalAppend accumulation differs:\ngot:  %v\nwant: %v", useArena, acc, want)
		}
		if acc.Len() == 0 {
			t.Fatal("expected extractions from the segmented document")
		}
	}
}

// TestEvalAppendIdentityShiftEqualsEval pins the wrapper relationship:
// Eval is EvalAppend with the identity shift plus Dedupe.
func TestEvalAppendIdentityShiftEqualsEval(t *testing.T) {
	p := regexformula.MustCompile(".*y{a+}b.*")
	doc := "xxaaabyyaab"
	rel := span.NewRelation(p.Vars...)
	p.EvalAppend(doc, span.Span{Start: 1, End: len(doc) + 1}, rel, nil)
	rel.Dedupe()
	if want := p.Eval(doc); !rel.Equal(want) {
		t.Fatalf("identity EvalAppend %v differs from Eval %v", rel, want)
	}
}

func TestEvalAppendArityMismatchPanics(t *testing.T) {
	p := regexformula.MustCompile(".*y{a}.*")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on relation arity mismatch")
		}
	}()
	p.EvalAppend("a", span.Span{Start: 1, End: 2}, span.NewRelation("x", "y"), nil)
}

// raceBuild reports a -race test binary, where sync.Pool drops a quarter
// of its Puts on purpose and allocation counts through a pool are noise.
func raceBuild() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestEvalAppendOneShotAllocatesNothing pins the fixed cost of the
// one-shot form on a segment that yields no tuple — the common case on
// a sentence-split document: neither the factor gate nor a forward pass
// that finds no match end may allocate (the automaton's Multi of one
// keeps its session on the stack, its scratch comes from the pools).
func TestEvalAppendOneShotAllocatesNothing(t *testing.T) {
	p := regexformula.MustCompile(".*[ .]y{bad ([a-z]+)}[ .].*|y{bad ([a-z]+)}[ .].*")
	p.Prepare()
	rel := span.NewRelation(p.Vars...)
	arena := new(span.TupleArena)
	segs := []string{"the tea was fine and the cup was warm ok"} // no mandatory factor: gate only
	if !raceBuild() {
		segs = append(segs, "not so bad 4 a first try, we would say..") // factor, but no match: forward pass
	}
	for _, seg := range segs {
		by := span.Span{Start: 101, End: 101 + len(seg)}
		if n := testing.AllocsPerRun(100, func() { p.EvalAppend(seg, by, rel, arena) }); n != 0 {
			t.Errorf("EvalAppend(%q): %v allocations, want 0", seg, n)
		}
		if rel.Len() != 0 {
			t.Fatalf("segment %q unexpectedly matched: %v", seg, rel)
		}
	}
}

// TestMultiSessionAllocationsPerSegment pins the per-call fixed cost of
// a worker's MultiSession to the one-shot EvalAppend's: a
// sentence-split document is some 25 000 evaluation calls per megabyte,
// and both run the one evaluation pass on the same scratch, so a session on a
// Multi of one member may allocate no more per segment than the member's
// one-shot calls — what is left is result tuples, which are the same.
func TestMultiSessionAllocationsPerSegment(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops Puts under -race")
	}
	neg := library.NegativeSentiment()
	neg.Prepare()
	doc := scanReviewDoc(256 << 10)
	var segs []scanPiece
	for _, sp := range library.FastSentenceSplit(doc) {
		segs = append(segs, scanPiece{sp.In(doc), sp})
	}
	nseg := float64(len(segs))
	if nseg < 5000 {
		t.Fatalf("only %v segments: the corpus lost its sentence density", nseg)
	}
	oneShot := testing.AllocsPerRun(5, func() {
		rel := span.NewRelation(neg.Vars...)
		var arena span.TupleArena
		for _, p := range segs {
			neg.EvalAppend(p.text, p.by, rel, &arena)
		}
	})
	m := vsa.NewMulti(neg)
	m.Prepare()
	session := testing.AllocsPerRun(5, func() {
		rel := span.NewRelation(neg.Vars...)
		relOf := func(int) *span.Relation { return rel }
		var arena span.TupleArena
		s := m.NewSession(nil)
		for _, p := range segs {
			s.EvalAppend(p.text, p.by, relOf, &arena)
		}
		s.Close()
	})
	t.Logf("%v segments: %.3f allocations per segment one-shot, %.3f through a MultiSession", nseg, oneShot/nseg, session/nseg)
	// One segment in a thousand of slack: the relOf closure and whatever
	// a pooled scratch had to grow.
	if session/nseg > oneShot/nseg+0.001 {
		t.Errorf("MultiSession: %.3f allocations per segment, one-shot EvalAppend %.3f", session/nseg, oneShot/nseg)
	}
}

// TestEvalAppendEmitsEachTupleOnce pins EvalAppend's within-call dedupe:
// an ambiguous formula reaches each x{a} by two runs — through the
// second alternative it is emitted at the boundary after the a, through
// the first only after the next b — and the tuple must be appended once.
func TestEvalAppendEmitsEachTupleOnce(t *testing.T) {
	p := regexformula.MustCompile(`(.*)(x{a})(.*)(b)(.*)|(.*)(x{a})(.*)`)
	doc := strings.Repeat("abcab", 12)
	rel := span.NewRelation(p.Vars...)
	p.EvalAppend(doc, span.Span{Start: 1, End: len(doc) + 1}, rel, nil)
	appended := len(rel.Tuples)
	rel.Dedupe()
	want := p.EvalReference(doc).Len()
	if appended != rel.Len() || appended != want {
		t.Fatalf("EvalAppend appended %d tuples, %d distinct, EvalReference finds %d", appended, rel.Len(), want)
	}
	if want != 24 {
		t.Fatalf("EvalReference finds %d tuples, want one per a (24)", want)
	}
}

// TestMultiSessionDenseAllocations pins what emitting tuples costs: a
// MultiSession with an arena over the 2 MiB match-dense review document
// emits some 11 500 tuples, and the table that dedupes them allocates
// nothing per tuple. What is left is the arena's slabs and the
// relation's growth: a few dozen allocations, not one per tuple.
func TestMultiSessionDenseAllocations(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops Puts under -race")
	}
	neg := library.NegativeSentiment()
	m := vsa.NewMulti(neg)
	m.Prepare()
	doc := scanReviewDoc(2 << 20)
	by := span.Span{Start: 1, End: len(doc) + 1}
	tuples := 0
	allocs := testing.AllocsPerRun(3, func() {
		rel := span.NewRelation(neg.Vars...)
		var arena span.TupleArena
		s := m.NewSession(nil)
		s.EvalAppend(doc, by, func(int) *span.Relation { return rel }, &arena)
		s.Close()
		tuples = rel.Len()
	})
	t.Logf("%d tuples: %.0f allocations per evaluation", tuples, allocs)
	if tuples < 10000 {
		t.Fatalf("%d tuples: the corpus lost its match density", tuples)
	}
	if allocs > float64(tuples)/100 {
		t.Errorf("%.0f allocations for %d tuples, want at most one per hundred", allocs, tuples)
	}
}
