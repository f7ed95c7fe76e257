package vsa

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/reltest"
	"repro/internal/span"
)

// assertMultiMatchesStandalone compares every member relation of a fused
// evaluation against the member automaton's own standalone Eval — the
// demultiplexing contract Multi promises — and both against
// EvalReference.
func assertMultiMatchesStandalone(t *testing.T, m *Multi, doc string) {
	t.Helper()
	rels := m.Eval(doc)
	if len(rels) != m.Len() {
		t.Fatalf("Eval returned %d relations for %d members", len(rels), m.Len())
	}
	for i, got := range rels {
		a := m.Member(i)
		if d := reltest.ThreeWayDiff("fused", got, "standalone", a.Eval(doc), a.EvalReference(doc)); d != "" {
			t.Errorf("member %d on %q:\n%s", i, doc, d)
		}
	}
}

// evalInto is m.Eval on a session counting into rec.
func evalInto(m *Multi, doc string, rec *Record) []*span.Relation {
	s := m.NewSession(rec)
	defer s.Close()
	return s.Eval(doc)
}

// assertRecordMatchesStandalone is assertMultiMatchesStandalone with m's
// evaluation counted into rec.
func assertRecordMatchesStandalone(t *testing.T, m *Multi, doc string, rec *Record) {
	t.Helper()
	for i, got := range evalInto(m, doc, rec) {
		a := m.Member(i)
		if d := reltest.ThreeWayDiff("fused", got, "standalone", a.Eval(doc), a.EvalReference(doc)); d != "" {
			t.Errorf("member %d on %q:\n%s", i, doc, d)
		}
	}
}

// extractorBlowup builds Σ*·x{a·(a|b)^k}·Σ*: the classic
// subset-construction blowup (the scan DFA must remember which of the
// last k positions held an 'a'), so the fused lazy DFA overflows its
// state bound on long random a/b documents. The span has fixed length
// k+1, which keeps the whole-document fallback simulation linear.
func extractorBlowup(k int) *Automaton {
	a := NewAutomaton("x")
	a.AddEdge(0, 0, alphabet.Any, 0)
	prev := a.AddState()
	a.AddEdge(0, Open(0), alphabet.Of('a'), prev)
	for i := 1; i < k; i++ {
		next := a.AddState()
		a.AddEdge(prev, 0, alphabet.Of('a'), next)
		a.AddEdge(prev, 0, alphabet.Of('b'), next)
		prev = next
	}
	post := a.AddState()
	a.AddEdge(prev, Close(0), alphabet.Of('a'), post)
	a.AddEdge(prev, Close(0), alphabet.Of('b'), post)
	a.AddFinal(post, 0)
	a.AddEdge(post, 0, alphabet.Any, post)
	return a
}

// extractorRevBlowup builds Σ*·x{(a|b)^k·a}·Σ*, extractorBlowup read
// backwards: the forward scan DFA only counts how far into a span it may
// be, while the backward narrowing, which starts at every 'a' that ends a
// match, must remember which of the next k positions hold one, so the
// reverse DFA overflows its state bound on long random a/b documents.
// The span has fixed length k+1, which keeps the tuple count linear.
func extractorRevBlowup(k int) *Automaton {
	a := NewAutomaton("x")
	a.AddEdge(0, 0, alphabet.Any, 0)
	prev := a.AddState()
	a.AddEdge(0, Open(0), alphabet.Of('a'), prev)
	a.AddEdge(0, Open(0), alphabet.Of('b'), prev)
	for i := 1; i < k; i++ {
		next := a.AddState()
		a.AddEdge(prev, 0, alphabet.Of('a'), next)
		a.AddEdge(prev, 0, alphabet.Of('b'), next)
		prev = next
	}
	post := a.AddState()
	a.AddEdge(prev, Close(0), alphabet.Of('a'), post)
	a.AddFinal(post, 0)
	a.AddEdge(post, 0, alphabet.Any, post)
	return a
}

// buildUnanchoredCD is buildUnanchoredAB over the letters c/d: a
// factor-bearing shape ("cd") whose scan skips between occurrences.
func buildUnanchoredCD(t *testing.T) *Automaton {
	t.Helper()
	a := NewAutomaton("x")
	mid := a.AddState()
	post := a.AddState()
	a.AddEdge(0, 0, alphabet.Any, 0)
	a.AddEdge(0, Open(0), alphabet.Of('c'), mid)
	a.AddEdge(mid, Close(0), alphabet.Of('d'), post)
	a.AddFinal(post, 0)
	a.AddEdge(post, 0, alphabet.Any, post)
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return a
}

// buildAnchoredCD is buildAnchoredAB over the letters c/d: a second
// mandatory factor ("cd") disjoint from "ab", for admission-mask tests.
func buildAnchoredCD(t *testing.T) *Automaton {
	t.Helper()
	a := NewAutomaton("x")
	mid := a.AddState()
	post := a.AddState()
	a.AddEdge(0, Open(0), alphabet.Of('c'), mid)
	a.AddEdge(mid, Close(0), alphabet.Of('d'), post)
	a.AddFinal(post, 0)
	a.AddEdge(post, 0, alphabet.Any, post)
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return a
}

// buildEmptyLanguage builds an automaton whose language is empty (its
// only final state is unreachable): a degenerate but legal member.
func buildEmptyLanguage() *Automaton {
	a := NewAutomaton("x")
	a.AddEdge(0, 0, alphabet.Any, 0)
	orphan := a.AddState()
	a.AddFinal(orphan, 0)
	return a
}

// TestMultiMatchesStandalone is the core table-driven differential:
// heterogeneous member sets over documents exercising empty input,
// matches at both ends, checkpoint-stride straddling and no-match
// documents must demultiplex byte-identically to per-member Eval.
func TestMultiMatchesStandalone(t *testing.T) {
	long := strings.Repeat(".", 3*checkpointStride)
	docs := []string{
		"",
		"a",
		"ab",
		"aa.bb.aa",
		"xxaxxbxx",
		long,
		long + "aab" + long,
		"a" + long + "b",
		long + "a" + long + "b" + long + "ab",
		strings.Repeat("ab", 2*checkpointStride),
	}
	cases := []struct {
		name    string
		members []*Automaton
	}{
		{"four-shapes", []*Automaton{
			extractorAPlus(), extractorPrefixAnchored(),
			extractorSuffixAnchored(), extractorZeroWidth(),
		}},
		{"single", []*Automaton{extractorAPlus()}},
		{"factor-pair", []*Automaton{buildUnanchoredAB(t), extractorZeroWidth()}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewMulti(c.members...)
			for _, doc := range docs {
				assertMultiMatchesStandalone(t, m, doc)
			}
		})
	}
}

// TestSingleIsUnaryMulti pins the one evaluation pass from both of its entry
// points: for every automaton of the window and multi tables —
// including the ones that cannot be localized (nullary, status-less),
// one that overflows every group it is in, and a DisablePrefilter copy —
// a.Eval, NewMulti(a).Eval()[0] and a.EvalReference agree. The Multi of
// one runs the automaton's own group, not a copy of it, and the ladder
// only steps down: each document is one pass over that group of one, and
// the instrumented document leaves it by exactly one exit. A Multi of two
// copies hands its members to their own groups only where it must, and
// each of them reaches the whole-document rung at most once.
func TestSingleIsUnaryMulti(t *testing.T) {
	nullary := NewAutomaton()
	nullary.AddEdge(0, 0, alphabet.Any, 0)
	nullary.AddFinal(0, 0)
	stepped := buildUnanchoredAB(t)
	stepped.DisablePrefilter()

	long := strings.Repeat(".", 3*checkpointStride)
	rng := rand.New(rand.NewSource(42))
	var ab strings.Builder
	for i := 0; i < 1<<14; i++ {
		ab.WriteByte("ab"[rng.Intn(2)])
	}
	docs := []string{
		"", "a", "ab", "ac", "bc", "cd", "aa.bb.aa", "xxaxxbxx", long,
		long + "aab" + long, "a" + long + "b", long + "ab" + long + "cd",
		strings.Repeat("ab", 2*checkpointStride),
		ab.String(), // overflows extractorBlowup(16)'s scan DFA
	}
	cases := []struct {
		name string
		a    *Automaton
		// solo: no localizer, never in a group of many. overflows: the last
		// document overflows the member's group at any size.
		solo, overflows bool
	}{
		{"a-plus", extractorAPlus(), false, false},
		{"prefix-anchored", extractorPrefixAnchored(), false, false},
		{"suffix-anchored", extractorSuffixAnchored(), false, false},
		{"zero-width", extractorZeroWidth(), false, false},
		{"unanchored-ab", buildUnanchoredAB(t), false, false},
		{"unanchored-cd", buildUnanchoredCD(t), false, false},
		{"anchored-ab", buildAnchoredAB(t), false, false},
		{"anchored-cd", buildAnchoredCD(t), false, false},
		{"empty-language", buildEmptyLanguage(), false, false},
		{"stepped", stepped, false, false},
		{"nullary", nullary, true, false},
		{"blowup-16", extractorBlowup(16), false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewMulti(c.a)
			pair := NewMulti(c.a, c.a)
			// One record takes both Multis' passes: m's evaluation fields,
			// and the pair's evaluation and multi-query fields (a Multi of
			// one counts no multi-query fields).
			var em Record
			pm := &em
			m.Prepare()
			pair.Prepare()
			own := c.a.localizer().group
			if len(m.groups) != 1 || m.groups[0] != m.own[0] || m.groups[0].scanGroup != own {
				t.Fatal("the Multi of one does not run the automaton's own scan group")
			}
			if c.solo == own.locs[0].ok {
				t.Fatalf("own group localizes = %v, solo = %v", own.locs[0].ok, c.solo)
			}
			if !c.solo && (len(pair.groups) != 1 || len(pair.groups[0].members) != 2) {
				t.Fatalf("the pair is not one group of two")
			}
			var empty, whole, windows uint64
			for _, doc := range docs {
				fused := evalInto(m, doc, &em)[0]
				big := len(doc) >= MetricsMinDocBytes
				if big {
					empty, whole, windows = em[EmptyDocs], em[Fallbacks], em[Windows]
				}
				pairs := evalInto(pair, doc, &em)
				want, ref := c.a.Eval(doc), c.a.EvalReference(doc)
				if d := reltest.ThreeWayDiff("fused", fused, "standalone", want, ref); d != "" {
					t.Errorf("on %q:\n%s", doc, d)
				}
				for i, r := range pairs {
					if d := reltest.ThreeWayDiff("pair", r, "standalone", want, ref); d != "" {
						t.Errorf("pair member %d on %q:\n%s", i, doc, d)
					}
				}
			}
			// The Multi of one: one pass over the group of one per document,
			// never a fused pass; the one instrumented document (the last)
			// left by one exit — empty, windows or the whole document.
			var mm Record
			for _, doc := range docs {
				evalInto(m, doc, &mm)
			}
			if got := mm[Evals]; got != 1 {
				t.Errorf("instrumented passes over the group of one = %d, want 1", got)
			}
			if got := mm[FusedPasses] + mm[MemberFallbacks] + mm[DemuxTuples]; got != 0 {
				t.Errorf("a Multi of one counted %d multi-query events", got)
			}
			exits := empty + whole
			if windows > 0 {
				exits++
			}
			if exits != 1 {
				t.Errorf("instrumented document: empty %d, whole %d, windows %d; want exactly one exit", empty, whole, windows)
			}
			// The pair: a solo member is never fused, so both copies take
			// their own groups on every document; an overflowing group hands
			// both down on the one document that overflows it.
			wantDown, wantWhole := uint64(0), uint64(0)
			switch {
			case c.solo:
				wantDown, wantWhole = 2*uint64(len(docs)), 1
			case c.overflows:
				wantDown, wantWhole = 2, 1
			}
			if whole != wantWhole {
				t.Errorf("Multi of one: whole-document exits = %d, want %d", whole, wantWhole)
			}
			if got := pm[MemberFallbacks]; got != wantDown {
				t.Errorf("pair: members handed to their own group = %d, want %d", got, wantDown)
			}
			if got := em[Fallbacks] - whole; got != 2*wantWhole {
				t.Errorf("pair: whole-document exits = %d, want %d", got, 2*wantWhole)
			}
			if c.a.PrefilterDisabled() && (!own.noSkip || pm[FusedSkippedBytes] != 0) {
				t.Error("DisablePrefilter copy did not get a fully stepped scan")
			}
		})
	}
}

// TestMultiDuplicateMembers: the same query registered several times in
// one batch (the same pointer twice AND a structurally identical twin)
// must yield the identical relation in every slot.
func TestMultiDuplicateMembers(t *testing.T) {
	a := extractorAPlus()
	twin := extractorAPlus()
	m := NewMulti(a, a, twin)
	for _, doc := range []string{"", "aa.bb.aa", "xxaxx"} {
		rels := m.Eval(doc)
		want := a.Eval(doc)
		for i, got := range rels {
			if !got.Equal(want) {
				t.Errorf("duplicate slot %d on %q: %v != %v", i, doc, got, want)
			}
		}
	}
}

// TestMultiEmptyLanguageMember: a member accepting nothing, mixed with
// matching siblings, must come back empty without disturbing them.
func TestMultiEmptyLanguageMember(t *testing.T) {
	empty := buildEmptyLanguage()
	m := NewMulti(empty, extractorAPlus(), extractorZeroWidth())
	for _, doc := range []string{"", "ab", "aa.bb"} {
		assertMultiMatchesStandalone(t, m, doc)
		if got := m.Eval(doc)[0]; got.Len() != 0 {
			t.Errorf("empty-language member matched %v on %q", got, doc)
		}
	}
}

// TestMultiZeroWidthSameOffset: two queries producing zero-width spans
// at the same document offset must each receive their own copy of the
// tuple from the shared pass.
func TestMultiZeroWidthSameOffset(t *testing.T) {
	m := NewMulti(extractorZeroWidth(), extractorZeroWidth())
	doc := "xbxxb"
	rels := m.Eval(doc)
	want := extractorZeroWidth().Eval(doc)
	if want.Len() == 0 {
		t.Fatal("oracle found no zero-width matches")
	}
	for i, got := range rels {
		if !got.Equal(want) {
			t.Errorf("zero-width member %d: %v != %v", i, got, want)
		}
	}
}

// TestMultiAdmissionSkipsSibling: a member whose mandatory factor is
// absent is skipped by the admission bitmap (counted in AdmissionSkips)
// while its siblings still match at full strength.
func TestMultiAdmissionSkipsSibling(t *testing.T) {
	ab := buildUnanchoredAB(t)
	if f := ab.Prefilter().Factor; f != "ab" {
		t.Fatalf("precondition: factor %q, want \"ab\"", f)
	}
	m := NewMulti(ab, extractorAPlus())
	var mm Record

	doc := "a.a.a" // has 'a' matches, no "ab" factor
	assertRecordMatchesStandalone(t, m, doc, &mm)
	if got := mm[AdmissionSkips]; got == 0 {
		t.Error("admission gate never skipped the factor-less member")
	}
	rels := evalInto(m, doc, &mm)
	if rels[0].Len() != 0 {
		t.Errorf("skipped member returned tuples: %v", rels[0])
	}
	if rels[1].Len() == 0 {
		t.Error("sibling of a skipped member lost its matches")
	}

	// Both factors present: both admitted, both match.
	assertRecordMatchesStandalone(t, m, "x.ab.a", &mm)
}

// TestMultiAdmissionAllRejected: when every member's factor is absent
// the group is never scanned at all (FusedPasses stays zero).
func TestMultiAdmissionAllRejected(t *testing.T) {
	m := NewMulti(buildUnanchoredAB(t), buildAnchoredCD(t))
	var mm Record
	doc := strings.Repeat("z", 4096)
	assertRecordMatchesStandalone(t, m, doc, &mm)
	if got := mm[FusedPasses]; got != 0 {
		t.Errorf("fully rejected document still ran %d fused passes", got)
	}
	if got := mm[AdmissionSkips]; got != 2 {
		t.Errorf("AdmissionSkips = %d, want 2", got)
	}
}

// TestMultiStartStateCache: each distinct admission mask starts at one
// interned state across evaluations — a partial mask at the state the
// DFA interned for its start subset, the full mask at the state the
// group interned first — so repeats intern nothing.
func TestMultiStartStateCache(t *testing.T) {
	m := NewMulti(buildUnanchoredAB(t), buildAnchoredCD(t))
	docs := []string{
		"zabz.cdz", // both admitted (mask 11, dfaStart since build)
		"zabz",     // AB only (mask 01)
		"cdzz",     // CD only (mask 10)
		"zzzz",     // neither: early return, no start state
	}
	for _, doc := range docs {
		assertMultiMatchesStandalone(t, m, doc)
	}
	if len(m.groups) != 1 {
		t.Fatalf("want 1 group, got %d", len(m.groups))
	}
	g := m.groups[0]
	n := g.dfa.Len()
	starts := map[uint64]int32{}
	for _, mask := range []uint64{0b01, 0b10} {
		s := g.startFor(mask)
		if s <= dfaDead || s == dfaStart || !slices.Equal(g.dfa.Snapshot()[s].Set, g.startSet(nil, mask)) {
			t.Fatalf("mask %02b starts at state %d, not at its start subset's own state", mask, s)
		}
		starts[mask] = s
	}
	if starts[0b01] == starts[0b10] {
		t.Fatal("two partial masks share one start state")
	}
	for range 2 { // repeats must find their states, not intern new ones
		for _, doc := range docs {
			assertMultiMatchesStandalone(t, m, doc)
		}
		for mask, s := range starts {
			if got := g.startFor(mask); got != s {
				t.Errorf("mask %02b starts at state %d, then at %d", mask, s, got)
			}
		}
	}
	if got := g.dfa.Len(); got != n {
		t.Errorf("repeated masks grew the group DFA from %d to %d states", n, got)
	}
	if got := g.startFor(g.fullMask); got != dfaStart {
		t.Errorf("full admission starts at state %d, want dfaStart", got)
	}
}

// TestMultiSoloNonLocalizable: a member without a localizer runs on its
// own group of one — the automaton's own, counted as a fallback — while
// its localizable siblings still share one fused pass.
func TestMultiSoloNonLocalizable(t *testing.T) {
	solo := NewAutomaton() // nullary: accepts any document with an 'a'
	mid := solo.AddState()
	solo.AddEdge(0, 0, alphabet.Any, 0)
	solo.AddEdge(0, 0, alphabet.Of('a'), mid)
	solo.AddEdge(mid, 0, alphabet.Any, mid)
	solo.AddFinal(mid, 0)
	m := NewMulti(solo, extractorAPlus(), extractorZeroWidth())
	var mm Record
	m.Prepare()
	if len(m.groups) != 2 || m.groups[0].scanGroup != solo.localizer().group || m.groups[0].members[0] != 0 {
		t.Fatalf("the non-localizable member does not run on its own group")
	}
	if g := m.groups[1]; len(g.members) != 2 || g.members[0] != 1 || g.members[1] != 2 {
		t.Fatalf("localizable siblings not fused into one group: %v", g.members)
	}
	docs := []string{"", "ac", "bc", "acc.a"}
	for _, doc := range docs {
		assertRecordMatchesStandalone(t, m, doc, &mm)
	}
	if got := mm[MemberFallbacks]; got != uint64(len(docs)) {
		t.Errorf("MemberFallbacks = %d, want one per document (%d)", got, len(docs))
	}
	if got := mm[FusedPasses]; got == 0 {
		t.Error("localizable siblings never took the fused pass")
	}
}

// TestMultiOverflowGroupFallback: a subset-blowup member overflows the
// fused DFA's state bound mid-document; the whole group must fall back
// to standalone evaluation, byte-identically, mid-batch.
func TestMultiOverflowGroupFallback(t *testing.T) {
	blowup := extractorBlowup(16)
	m := NewMulti(blowup, extractorAPlus())
	var mm Record
	rng := rand.New(rand.NewSource(42))
	var b strings.Builder
	for i := 0; i < 1<<14; i++ {
		b.WriteByte("ab"[rng.Intn(2)])
	}
	doc := b.String()
	assertRecordMatchesStandalone(t, m, doc, &mm)
	if got := mm[MemberFallbacks]; got < 2 {
		t.Errorf("MemberFallbacks = %d, want both admitted members to fall back on fused overflow", got)
	}
	// A harmless document afterwards must still evaluate (the overflowed
	// DFA stays overflowed; the group keeps falling back, correctly).
	assertRecordMatchesStandalone(t, m, "aab.bba", &mm)
}

// TestMultiNarrowOverflowTakesWholeRung: a fused member whose backward
// narrowing overflows goes from the fused pass straight to the
// whole-document rung. Its own group would scan the document forward
// again, find the same ends and overflow on the same reverse DFA, so the
// member is scanned forward once per document — by the fused pass;
// Evals, which counts passes over a group of one, stays 0 — and its
// relation is the standalone one.
func TestMultiNarrowOverflowTakesWholeRung(t *testing.T) {
	rev := extractorRevBlowup(16)
	m := NewMulti(rev, extractorAPlus())
	rng := rand.New(rand.NewSource(7))
	docs := make([]string, 2)
	for i := range docs {
		b := make([]byte, 1<<13)
		for j := range b {
			b[j] = "ab"[rng.Intn(2)]
		}
		docs[i] = string(b)
	}
	var rec Record
	for _, doc := range docs {
		assertRecordMatchesStandalone(t, m, doc, &rec)
	}
	if n := rev.localizer().rev.dfa.Len(); n < maxDFAStates {
		t.Fatalf("the reverse DFA holds %d states, below its bound of %d: no overflow", n, maxDFAStates)
	}
	if rec[FusedPasses] != 2 || rec[MemberFallbacks] != 2 {
		t.Errorf("FusedPasses = %d, MemberFallbacks = %d, want one of each per document",
			rec[FusedPasses], rec[MemberFallbacks])
	}
	if rec[Evals] != 0 {
		t.Errorf("the member's own group scanned %d of %d documents again", rec[Evals], len(docs))
	}
}

// TestMultiSkipAndNoSkip: the fused trigger-byte skip loop engages on
// sparse documents, and one member's DisablePrefilter call disables it
// for the whole group — in both modes results match the standalone
// evaluations exactly.
func TestMultiSkipAndNoSkip(t *testing.T) {
	gap := strings.Repeat(".", 1<<12)
	doc := gap + "ab" + gap + "cd" + gap

	skip := NewMulti(buildUnanchoredAB(t), buildUnanchoredCD(t))
	var sm Record
	assertRecordMatchesStandalone(t, skip, doc, &sm)
	skip.Prepare()
	if skip.groups[0].noSkip {
		t.Fatal("prefilter-enabled group built with noSkip")
	}
	if got := sm[FusedSkippedBytes]; got == 0 {
		t.Error("fused skip loop never jumped on a sparse document")
	}

	dis := buildUnanchoredAB(t)
	dis.DisablePrefilter()
	step := NewMulti(dis, buildUnanchoredCD(t))
	var nm Record
	assertRecordMatchesStandalone(t, step, doc, &nm)
	step.Prepare()
	if !step.groups[0].noSkip {
		t.Fatal("DisablePrefilter member did not force the stepped fused scan")
	}
	if got := nm[FusedSkippedBytes]; got != 0 {
		t.Errorf("stepped group skipped %d bytes", got)
	}
}

// TestMultiManyMembersSplitIntoGroups: more than maxGroupMembers fused
// members must be chunked into several groups, each demultiplexing
// correctly. With one member past a full group, that member is a group
// of one: its own localizer group, not a second lazy DFA.
func TestMultiManyMembersSplitIntoGroups(t *testing.T) {
	for _, n := range []int{maxGroupMembers + 1, maxGroupMembers + 6} {
		var members []*Automaton
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				members = append(members, extractorAPlus())
			} else {
				members = append(members, extractorZeroWidth())
			}
		}
		m := NewMulti(members...)
		m.Prepare()
		if len(m.groups) != 2 {
			t.Fatalf("want 2 groups for %d members, got %d", n, len(m.groups))
		}
		if n == maxGroupMembers+1 {
			last := members[n-1]
			if g := m.groups[1]; g.scanGroup != last.localizer().group || len(g.members) != 1 || g.members[0] != n-1 {
				t.Fatalf("member %d is not evaluated on its own localizer group", n)
			}
		}
		for _, doc := range []string{"aa.bb.aa", "", "bab"} {
			assertMultiMatchesStandalone(t, m, doc)
			if got, ref := m.Eval(doc)[n-1], members[n-1].EvalReference(doc); !got.Equal(ref) {
				t.Errorf("%d members: member %d on %q: %v, EvalReference %v", n, n, doc, got, ref)
			}
		}
	}
}

// TestMultiEvalAppend: the accumulator form shifts by `by`, carves from
// the arena, and requests relations lazily — an admitted member with no
// candidate match ends never has its relation created.
func TestMultiEvalAppend(t *testing.T) {
	dis := extractorAPlus()
	dis.DisablePrefilter() // always admitted, even with no 'a' in the doc
	m := NewMulti(dis, extractorZeroWidth())
	doc := "bbxbb" // zero-width matches; a+ has no candidate ends
	by := span.Span{Start: 101, End: 101 + len(doc)}

	var arena span.TupleArena
	rels := make([]*span.Relation, m.Len())
	requested := 0
	m.EvalAppend(doc, by, func(i int) *span.Relation {
		requested++
		if rels[i] == nil {
			rels[i] = span.NewRelation(m.Member(i).Vars...)
		}
		return rels[i]
	}, &arena)

	if rels[0] != nil {
		t.Errorf("member with no candidate ends had its relation created: %v", rels[0])
	}
	if requested == 0 || rels[1] == nil {
		t.Fatal("matching member never requested its relation")
	}
	want := span.NewRelation(m.Member(1).Vars...)
	m.Member(1).EvalAppend(doc, by, want, nil)
	rels[1].Dedupe()
	want.Dedupe()
	if !rels[1].Equal(want) {
		t.Errorf("shifted EvalAppend: fused %v != standalone %v", rels[1], want)
	}
}

// TestMultiEvalAppendArityPanic: handing a member a relation of the
// wrong arity must panic, mirroring Automaton.EvalAppend's contract.
func TestMultiEvalAppendArityPanic(t *testing.T) {
	m := NewMulti(extractorAPlus())
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch did not panic")
		}
	}()
	bad := span.NewRelation("x", "y")
	m.EvalAppend("aa", span.Span{Start: 1, End: 3}, func(int) *span.Relation { return bad }, nil)
}

// TestNewMultiEmptyPanics pins the constructor contract.
func TestNewMultiEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMulti() did not panic")
		}
	}()
	NewMulti()
}

// TestMultiAccessors covers Len/Member and metric counters on a plain
// matching evaluation.
func TestMultiAccessors(t *testing.T) {
	a, b := extractorAPlus(), extractorZeroWidth()
	m := NewMulti(a, b)
	if m.Len() != 2 || m.Member(0) != a || m.Member(1) != b {
		t.Fatal("Len/Member disagree with construction")
	}
	var mm Record
	doc := "aa.bb"
	rels := evalInto(m, doc, &mm)
	wantTuples := uint64(rels[0].Len() + rels[1].Len())
	if wantTuples == 0 {
		t.Fatal("oracle expected matches")
	}
	if got := mm[FusedPasses]; got != 1 {
		t.Errorf("FusedPasses = %d, want 1", got)
	}
	if got := mm[FusedBytes]; got != uint64(len(doc)) {
		t.Errorf("FusedBytes = %d, want %d", got, len(doc))
	}
	if got := mm[DemuxTuples]; got != wantTuples {
		t.Errorf("DemuxTuples = %d, want %d", got, wantTuples)
	}
}

// TestMultiConcurrent hammers one shared Multi from many goroutines so
// the race detector sees the fused DFA, its states' skip sets and its
// partial-mask start states being built and read concurrently.
func TestMultiConcurrent(t *testing.T) {
	m := NewMulti(extractorAPlus(), buildUnanchoredAB(t), extractorZeroWidth())
	long := strings.Repeat(".", 2*checkpointStride)
	docs := []string{"", "ab", long + "aab" + long, "aa.bb", long}
	want := make([][]int, len(docs))
	for d, doc := range docs {
		want[d] = make([]int, m.Len())
		for i := 0; i < m.Len(); i++ {
			want[d][i] = m.Member(i).Eval(doc).Len()
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				d := (g + i) % len(docs)
				rels := m.Eval(docs[d])
				for q, r := range rels {
					if r.Len() != want[d][q] {
						t.Errorf("goroutine %d: member %d on doc %d: %d tuples, want %d",
							g, q, d, r.Len(), want[d][q])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzMultiVsMembers fuzzes the fused evaluation against per-member
// standalone Eval and EvalReference on random functional automata (the
// generator of dfa_test.go): the in-package complement of the
// formula-level differential in parallel.FuzzMultiVsSequential.
func FuzzMultiVsMembers(f *testing.F) {
	f.Add(int64(1), int64(2), "abab")
	f.Add(int64(3), int64(4), "")
	f.Add(int64(5), int64(6), strings.Repeat("c", 2*checkpointStride)+"ab")
	f.Fuzz(func(t *testing.T, seedA, seedB int64, doc string) {
		if len(doc) > 1<<12 {
			doc = doc[:1<<12]
		}
		a := randomAutomaton(rand.New(rand.NewSource(seedA)))
		b := randomAutomaton(rand.New(rand.NewSource(seedB)))
		if a.Validate() != nil || b.Validate() != nil {
			t.Skip()
		}
		m := NewMulti(a, b, a)
		rels := m.Eval(doc)
		// One run per tuple: before any Dedupe, EvalAppend has appended
		// each member's tuples once.
		appended := make([]*span.Relation, m.Len())
		m.EvalAppend(doc, span.Span{Start: 1, End: len(doc) + 1}, func(i int) *span.Relation {
			if appended[i] == nil {
				appended[i] = span.NewRelation(m.Member(i).Vars...)
			}
			return appended[i]
		}, nil)
		for i, got := range rels {
			mem := m.Member(i)
			ref := mem.EvalReference(doc)
			if d := reltest.ThreeWayDiff("fused", got, "standalone", mem.Eval(doc), ref); d != "" {
				t.Fatalf("member %d diverged on %q:\n%s%s", i, doc, d, mem)
			}
			n := 0 // a member with no tuple may never request its relation
			if appended[i] != nil {
				n = appended[i].Len()
			}
			if n != ref.Len() {
				t.Fatalf("member %d: EvalAppend appended %d tuples on %q, EvalReference finds %d\n%s", i, n, doc, ref.Len(), mem)
			}
		}
	})
}
