package lazydfa

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

// testSet builds a one-state skip set (state 1 loops on every
// non-trigger byte), the degenerate synchronized set.
func testSet(triggers ...byte) *SkipSet {
	var sync [256]int32
	for x := range sync {
		sync[x] = 1
	}
	for _, b := range triggers {
		sync[b] = -1
	}
	return NewSkipSet(triggers, []int32{1}, &sync)
}

func TestNewSkipSetBounds(t *testing.T) {
	var sync [256]int32
	if NewSkipSet(nil, []int32{1}, &sync) != nil {
		t.Fatal("empty trigger set must yield nil (unskippable)")
	}
	if NewSkipSet(make([]byte, MaxSkipTriggers+1), []int32{1}, &sync) != nil {
		t.Fatal("oversized trigger set must yield nil")
	}
	if NewSkipSet([]byte{'a'}, nil, &sync) != nil {
		t.Fatal("empty state set must yield nil")
	}
	if NewSkipSet([]byte{'a'}, make([]int32, MaxSkipStates+1), &sync) != nil {
		t.Fatal("oversized state set must yield nil")
	}
	s := NewSkipSet([]byte{'a', 'b'}, []int32{2, 5}, &sync)
	if s == nil || string(s.triggers) != "ab" {
		t.Fatalf("triggers = %q, want \"ab\"", s.triggers)
	}
	if !slices.Equal(s.states, []int32{2, 5}) {
		t.Fatalf("states = %v, want the state set [2 5] exactly", s.states)
	}
	if s.Sync('z') != 0 {
		t.Fatalf("Sync('z') = %d, want the provided table value 0", s.Sync('z'))
	}
}

func TestSkipRunJump(t *testing.T) {
	doc := strings.Repeat(".", 100) + "a" + strings.Repeat(".", 50) + "b" + strings.Repeat(".", 20)
	var r SkipRun
	r.Reset(testSet('a', 'b'), StringIndex(doc))
	if to, hit := r.Jump(0, len(doc)); !hit || to != 100 {
		t.Fatalf("Jump(0) = (%d, %v), want (100, true)", to, hit)
	}
	// Past the 'a': the cached 'a' occurrence is behind, 'b' is cached ahead.
	if to, hit := r.Jump(101, len(doc)); !hit || to != 151 {
		t.Fatalf("Jump(101) = (%d, %v), want (151, true)", to, hit)
	}
	// No trigger remains: land on the end with hit=false.
	if to, hit := r.Jump(152, len(doc)); hit || to != len(doc) {
		t.Fatalf("Jump(152) = (%d, %v), want (%d, false)", to, hit, len(doc))
	}
	// A nil set never moves.
	r.Reset(nil, StringIndex(doc))
	if to, hit := r.Jump(5, len(doc)); hit || to != 5 {
		t.Fatalf("nil-set Jump = (%d, %v), want (5, false)", to, hit)
	}
}

func TestSkipRunJumpReentryAtTrigger(t *testing.T) {
	// Jumping again from exactly a trigger position must re-find that
	// occurrence (the nx <= from recompute), not treat the cached value
	// as consumed and overshoot.
	doc := "....a...a.."
	var r SkipRun
	r.Reset(testSet('a'), StringIndex(doc))
	if to, hit := r.Jump(0, len(doc)); !hit || to != 4 {
		t.Fatalf("Jump(0) = (%d, %v), want (4, true)", to, hit)
	}
	if to, hit := r.Jump(4, len(doc)); !hit || to != 4 {
		t.Fatalf("Jump(4) = (%d, %v), want (4, true)", to, hit)
	}
	if to, hit := r.Jump(5, len(doc)); !hit || to != 8 {
		t.Fatalf("Jump(5) = (%d, %v), want (8, true)", to, hit)
	}
}

func TestSkipRunBytesIndex(t *testing.T) {
	doc := []byte("zzzqzz")
	var r SkipRun
	r.Reset(testSet('q'), BytesIndex(doc))
	if to, hit := r.Jump(0, len(doc)); !hit || to != 3 {
		t.Fatalf("Jump = (%d, %v), want (3, true)", to, hit)
	}
}

// twoStateSet models a word/separator oscillation: states 1 and 2,
// trigger 'b'; letters sync to 1, spaces sync to 2.
func twoStateSet() *SkipSet {
	var sync [256]int32
	for x := range sync {
		sync[x] = 1
	}
	sync[' '] = 2
	sync['b'] = -1
	return NewSkipSet([]byte{'b'}, []int32{1, 2}, &sync)
}

// gateDFA returns a DFA holding states 1 to 4 (testNFA's subsets {0},
// {1}, {2} and {0, 1}); the gate tests use only their skip slots.
func gateDFA() *DFA[bool] {
	d := newTestDFA(0, nil)
	for _, set := range [][]int32{{0}, {1}, {2}, {0, 1}} {
		d.Intern(set)
	}
	return d
}

// engage steps g on state q's self-loop until it returns a set.
func engage(t *testing.T, g *SkipGate[bool], st []State[bool], q int32) *SkipSet {
	t.Helper()
	for i := 0; i <= 4*DefaultSkipStreak; i++ {
		if s := g.Step(st, q, q); s != nil {
			return s
		}
	}
	t.Fatalf("gate never engaged on state %d's self-loop", q)
	return nil
}

func TestSkipGateOscillationEngages(t *testing.T) {
	doc := strings.Repeat("xy zz ", 20) + "b tail"
	set := twoStateSet()
	d := gateDFA()
	st := d.Snapshot()
	builds := 0
	var g SkipGate[bool]
	g.Bind(d, func(q int32) *SkipSet { builds++; return set }, StringIndex(doc))
	// Feed an alternation confined to states 1 and 2: 1,2,1,2,... The
	// two-state streak must engage the gate even though no single state
	// ever repeats DefaultSkipStreak times in a row.
	states := []int32{1, 2}
	engaged := -1
	cur := states[0]
	for i := 0; i < 4*DefaultSkipStreak; i++ {
		next := states[(i+1)%2]
		if s := g.Step(st, cur, next); s != nil {
			engaged = i
			break
		}
		cur = next
	}
	if engaged < 0 {
		t.Fatal("gate never engaged on a 2-state oscillation")
	}
	if engaged < DefaultSkipStreak-1 {
		t.Fatalf("gate engaged after %d steps, before the streak threshold %d", engaged+1, DefaultSkipStreak)
	}
	// Both states hold the built set now, so either one jumps at once.
	if s := g.Step(st, 2, 1); s != set {
		t.Fatal("a state of the built set must jump at once")
	}
	// A state outside the set does not skip; coming back into the set
	// jumps at once.
	if s := g.Step(st, 1, 3); s != nil {
		t.Fatal("out-of-set state must not skip")
	}
	if s := g.Step(st, 3, 2); s != set {
		t.Fatal("returning to the set after an excursion must jump at once")
	}
	if builds != 1 {
		t.Fatalf("gate ran %d builds, want 1", builds)
	}
}

// TestSkipGateBuiltSetFillsEveryState: a set built from one state fills
// the slot of every state it holds, so a later scan of the DFA jumps
// with it from any of them at its first step, with no streak and no
// build; a state marked unskippable gives way to a set that holds it.
func TestSkipGateBuiltSetFillsEveryState(t *testing.T) {
	d := gateDFA()
	st := d.Snapshot()
	set := twoStateSet()
	builds := 0
	build := func(q int32) *SkipSet {
		builds++
		return set
	}
	var first SkipGate[bool]
	first.Bind(d, build, StringIndex("x"))
	if s := engage(t, &first, st, 1); s != set {
		t.Fatal("the gate must jump with the set it built")
	}
	for _, q := range []int32{1, 2} {
		var g SkipGate[bool]
		g.Bind(d, build, StringIndex("x"))
		if s := g.Step(st, 3, q); s != set {
			t.Fatalf("a new scan entering state %d must jump with the built set at once", q)
		}
	}
	if builds != 1 {
		t.Fatalf("%d builds, want 1", builds)
	}

	var sync [256]int32
	pair := NewSkipSet([]byte{'b'}, []int32{4, 3}, &sync)
	var g SkipGate[bool]
	g.Bind(d, func(q int32) *SkipSet {
		if q == 3 {
			return nil
		}
		return pair
	}, StringIndex("x"))
	for i := 0; i < DefaultSkipStreak; i++ {
		if s := g.Step(st, 3, 3); s != nil {
			t.Fatal("a state that builds no set must not skip")
		}
	}
	if st[3].skip.Load() != unskippable {
		t.Fatal("state 3 must be marked unskippable after its build")
	}
	if s := engage(t, &g, st, 4); s != pair {
		t.Fatal("state 4 must jump with its set")
	}
	if s := g.Step(st, 4, 3); s != pair {
		t.Fatal("an unskippable state must take a set that holds it")
	}
}

// TestSkipGateConcurrentPublish: sixteen scans reach one unbuilt state
// together and each builds its own set for it. One store wins, and every
// scan jumps with that set.
func TestSkipGateConcurrentPublish(t *testing.T) {
	d := gateDFA()
	st := d.Snapshot()
	got := make([]*SkipSet, 16)
	var building, done sync.WaitGroup
	building.Add(len(got))
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			var g SkipGate[bool]
			g.Bind(d, func(q int32) *SkipSet {
				// No build returns before all sixteen scans are building,
				// so every scan found the slot empty.
				building.Done()
				building.Wait()
				return testSet(byte('a' + i))
			}, StringIndex("x"))
			for range DefaultSkipStreak {
				got[i] = g.Step(st, 1, 1)
			}
		}()
	}
	done.Wait()
	want := st[1].skip.Load()
	if want == nil || want == unskippable {
		t.Fatalf("state 1's slot holds %p after the builds, want a set", want)
	}
	for i, s := range got {
		if s != want {
			t.Fatalf("scan %d jumps with %p, want the first set stored, %p", i, s, want)
		}
	}
}

func TestSkipGateSelfLoopEngagesAndJumps(t *testing.T) {
	doc := strings.Repeat(".", 200) + "b" + strings.Repeat(".", 30)
	set := testSet('b')
	d := gateDFA()
	st := d.Snapshot()
	var g SkipGate[bool]
	g.Bind(d, func(q int32) *SkipSet { return set }, StringIndex(doc))
	var got *SkipSet
	pos := 0
	for ; pos < len(doc); pos++ {
		if got = g.Step(st, 1, 1); got != nil {
			break
		}
	}
	if got == nil {
		t.Fatal("gate never engaged on a self-loop")
	}
	to, hit := g.Jump(got, pos+1, len(doc))
	if !hit || to != 200 {
		t.Fatalf("Jump = (%d, %v), want (200, true)", to, hit)
	}
	// A jump that cannot advance lands on the trigger itself; the gate
	// stays armed, since only a window's yield stands it down.
	if to, hit = g.Jump(got, 200, len(doc)); !hit || to != 200 {
		t.Fatalf("no-progress Jump = (%d, %v), want (200, true)", to, hit)
	}
	if s := g.Step(st, 1, 1); s != set {
		t.Fatal("one no-progress jump must not stand the gate down")
	}
	// The rest of the window gains nothing: the window's mean falls under
	// the break-even, the gate stands down, and Step returns nil after.
	for k := 2; k < skipWindow; k++ {
		g.Jump(got, 200, len(doc))
	}
	if !g.StoodDown() {
		t.Fatalf("gate still armed after a window gaining %d bytes", 200-pos-1)
	}
	for i := 0; i < 4*DefaultSkipStreak; i++ {
		if s := g.Step(st, 1, 1); s != nil {
			t.Fatal("a stood-down gate must not skip again")
		}
	}
}

// TestSkipGateYieldRule pins the stand-down threshold: jumps gaining
// exactly skipBreakEven bytes each keep the gate armed window after
// window; one byte less stands it down at the end of the first window,
// not before.
func TestSkipGateYieldRule(t *testing.T) {
	for _, tc := range []struct {
		gain int
		down bool
	}{{skipBreakEven, false}, {skipBreakEven - 1, true}} {
		doc := strings.Repeat(strings.Repeat(".", tc.gain)+"b", 4*skipWindow)
		set := testSet('b')
		d := gateDFA()
		st := d.Snapshot()
		var g SkipGate[bool]
		g.Bind(d, func(q int32) *SkipSet { return set }, StringIndex(doc))
		engage(t, &g, st, 1)
		from := 0
		for k := 0; k < 3*skipWindow; k++ {
			to, hit := g.Jump(set, from, len(doc))
			if !hit || to-from != tc.gain {
				t.Fatalf("gain %d: jump %d = (%d, %v) from %d", tc.gain, k, to, hit, from)
			}
			if want := tc.down && k >= skipWindow-1; g.StoodDown() != want {
				t.Fatalf("gain %d: after jump %d StoodDown = %v, want %v", tc.gain, k, !want, want)
			}
			from = to + 1
		}
		if s := g.Step(st, 1, 1); (s == nil) != tc.down {
			t.Fatalf("gain %d: Step after the windows = %v, want stood down %v", tc.gain, s, tc.down)
		}
	}
}

// TestSkipGateUnskippableStateCachedOnce: a state whose build finds no set
// is built once for the DFA, not once per scan or per streak.
func TestSkipGateUnskippableStateCachedOnce(t *testing.T) {
	d := gateDFA()
	st := d.Snapshot()
	builds := 0
	build := func(q int32) *SkipSet {
		builds++
		return nil
	}
	for range 2 { // the second scan reads the state's slot
		var g SkipGate[bool]
		g.Bind(d, build, StringIndex("x"))
		for i := 0; i < 10*DefaultSkipStreak; i++ {
			if s := g.Step(st, 1, 1); s != nil {
				t.Fatal("nil-building state must never skip")
			}
		}
	}
	if builds != 1 {
		t.Fatalf("unskippable state built %d times, want 1", builds)
	}
}
