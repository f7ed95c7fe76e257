package lazydfa

import (
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
	if s == nil || string(s.Triggers()) != "ab" {
		t.Fatalf("Triggers = %q, want \"ab\"", s.Triggers())
	}
	if !s.Contains(2) || !s.Contains(5) || s.Contains(3) {
		t.Fatal("Contains must reflect the state set exactly")
	}
	if s.Sync('z') != 0 {
		t.Fatalf("Sync('z') = %d, want the provided table value 0", s.Sync('z'))
	}
}

func TestSkipCacheFirstStoreWins(t *testing.T) {
	var c SkipCache
	if _, ok := c.Lookup(3); ok {
		t.Fatal("empty cache must miss")
	}
	first := testSet('x')
	if got := c.Store(3, first); got != first {
		t.Fatal("first Store must return its own set")
	}
	if got := c.Store(3, testSet('y')); got != first {
		t.Fatal("second Store must return the first winner")
	}
	if set, ok := c.Lookup(3); !ok || set != first {
		t.Fatal("Lookup must return the winner")
	}
	// A stored nil records "unskippable" and still hits.
	c.Store(4, nil)
	if set, ok := c.Lookup(4); !ok || set != nil {
		t.Fatal("stored nil must hit with a nil set")
	}
}

func TestSkipCacheConcurrent(t *testing.T) {
	var c SkipCache
	var wg sync.WaitGroup
	winners := make([]*SkipSet, 16)
	for g := range winners {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			winners[g] = c.Store(7, testSet(byte(g)))
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(winners); g++ {
		if winners[g] != winners[0] {
			t.Fatal("concurrent Stores must all observe one winner")
		}
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

func TestSkipGateOscillationEngages(t *testing.T) {
	doc := strings.Repeat("xy zz ", 20) + "b tail"
	set := twoStateSet()
	var cache SkipCache
	builds := 0
	var g SkipGate
	g.Init(&cache)
	g.Bind(func(q int32) *SkipSet { builds++; return set }, StringIndex(doc))
	// Feed an alternation confined to states 1 and 2: 1,2,1,2,... The
	// two-state streak must engage the gate even though no single state
	// ever repeats DefaultSkipStreak times in a row.
	states := []int32{1, 2}
	engaged := -1
	cur := states[0]
	for i := 0; i < 4*DefaultSkipStreak; i++ {
		next := states[(i+1)%2]
		if s := g.Step(cur, next); s != nil {
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
	if builds != 1 {
		t.Fatalf("gate ran %d builds, want 1 (cache + memo)", builds)
	}
	// Once armed, any in-set state re-engages immediately.
	if s := g.Step(2, 1); s != set {
		t.Fatal("armed gate must re-engage immediately for an in-set state")
	}
	// An out-of-set excursion does not disarm it right away.
	if s := g.Step(1, 99); s != nil {
		t.Fatal("out-of-set state must not skip")
	}
	if s := g.Step(99, 2); s != set {
		t.Fatal("returning to the set after a short excursion must re-engage")
	}
}

func TestSkipGateSelfLoopEngagesAndJumps(t *testing.T) {
	doc := strings.Repeat(".", 200) + "b" + strings.Repeat(".", 30)
	set := testSet('b')
	var cache SkipCache
	var g SkipGate
	g.Init(&cache)
	g.Bind(func(q int32) *SkipSet { return set }, StringIndex(doc))
	var got *SkipSet
	pos := 0
	for ; pos < len(doc); pos++ {
		if got = g.Step(1, 1); got != nil {
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
	if s := g.Step(1, 1); s != set {
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
		if s := g.Step(1, 1); s != nil {
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
		var cache SkipCache
		var g SkipGate
		g.Init(&cache)
		g.Bind(func(q int32) *SkipSet { return set }, StringIndex(doc))
		for i := 0; g.Step(1, 1) == nil; i++ {
			if i > 4*DefaultSkipStreak {
				t.Fatal("gate never engaged on a self-loop")
			}
		}
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
		if s := g.Step(1, 1); (s == nil) != tc.down {
			t.Fatalf("gain %d: Step after the windows = %v, want stood down %v", tc.gain, s, tc.down)
		}
	}
}

func TestSkipGateUnskippableStateCachedOnce(t *testing.T) {
	var cache SkipCache
	builds := 0
	var g SkipGate
	g.Init(&cache)
	g.Bind(func(q int32) *SkipSet { builds++; return nil }, StringIndex("x"))
	for i := 0; i < 10*DefaultSkipStreak; i++ {
		if s := g.Step(1, 1); s != nil {
			t.Fatal("nil-building state must never skip")
		}
	}
	if builds != 1 {
		t.Fatalf("unskippable state built %d times, want 1", builds)
	}
}
