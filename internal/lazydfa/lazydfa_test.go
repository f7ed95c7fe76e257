package lazydfa

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// testNFA is a tiny nondeterministic automaton over classes {0, 1}
// recognizing strings whose last two symbols are "0 1" (the classic
// ..·0·1 pattern that forces genuine subset construction).
type testNFA struct{}

func (testNFA) succ(q int32, c uint8, emit func(int32)) {
	// state 0: loops on everything, guesses the 0 before the final 1;
	// state 1: saw the 0, wants a 1; state 2: accepting sink-less end.
	switch q {
	case 0:
		emit(0)
		if c == 0 {
			emit(1)
		}
	case 1:
		if c == 1 {
			emit(2)
		}
	}
}

func newTestDFA(max int, payloads *int) *DFA[bool] {
	return New(Config[bool]{
		Classes:   2,
		States:    3,
		MaxStates: max,
		Succ:      testNFA{}.succ,
		Payload: func(set []int32) bool {
			if payloads != nil {
				*payloads++
			}
			for _, q := range set {
				if q == 2 {
					return true
				}
			}
			return false
		},
	})
}

// walk runs input from start over the snapshot st the way every client
// does: one row lookup per byte, and Resolve for a sentinel or an id
// past the snapshot. It reports acceptance and how many ids it met past
// its snapshot.
func walk(d *DFA[bool], st []State[bool], start int32, input []uint8) (accept bool, stale int) {
	cur := start
	for _, c := range input {
		t := st[cur].Trans(c)
		if t <= Dead || int(t) >= len(st) {
			if int(t) >= len(st) {
				stale++
			}
			if t, st = d.Resolve(cur, c); t == Overflow {
				panic("unexpected overflow")
			}
		}
		cur = t
	}
	return st[cur].Payload, stale
}

func runWalk(d *DFA[bool], start int32, input []uint8) bool {
	accept, _ := walk(d, d.Snapshot(), start, input)
	return accept
}

// testWalker gives the snapshot API the walker shape some tests below
// are written in: Walk takes a snapshot, Resolve and Inject refresh it,
// Release has nothing to release.
type testWalker[P any] struct {
	d      *DFA[P]
	States []State[P]
}

func (d *DFA[P]) Walk() *testWalker[P] { return &testWalker[P]{d, d.Snapshot()} }

func (w *testWalker[P]) Release() {}

func (w *testWalker[P]) Resolve(from int32, c uint8) (t int32) {
	t, w.States = w.d.Resolve(from, c)
	return t
}

func (w *testWalker[P]) Inject(from int32, seed int) (t int32) {
	t, w.States = w.d.Inject(from, seed)
	return t
}

func refAccept(input []uint8) bool {
	return len(input) >= 2 && input[len(input)-2] == 0 && input[len(input)-1] == 1
}

func TestWalkMatchesReference(t *testing.T) {
	d := newTestDFA(0, nil)
	start := d.Intern([]int32{0})
	if start != 1 {
		t.Fatalf("start interned as %d, want 1", start)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		input := make([]uint8, rng.Intn(12))
		for i := range input {
			input[i] = uint8(rng.Intn(2))
		}
		if got, want := runWalk(d, start, input), refAccept(input); got != want {
			t.Fatalf("input %v: accept=%v, want %v", input, got, want)
		}
	}
}

func TestPayloadComputedOncePerState(t *testing.T) {
	var payloads int
	d := newTestDFA(0, &payloads)
	start := d.Intern([]int32{0})
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		input := make([]uint8, rng.Intn(10))
		for i := range input {
			input[i] = uint8(rng.Intn(2))
		}
		runWalk(d, start, input)
	}
	if n := d.Len(); payloads != n {
		t.Fatalf("payload ran %d times for %d states", payloads, n)
	}
	if d.Len() > 1<<3 {
		t.Fatalf("subset construction of a 3-state NFA materialized %d states", d.Len())
	}
}

func TestInternDeduplicatesAndEmptyIsDead(t *testing.T) {
	d := newTestDFA(0, nil)
	if got := d.Intern(nil); got != Dead {
		t.Fatalf("Intern(∅) = %d, want Dead", got)
	}
	a := d.Intern([]int32{0, 2})
	b := d.Intern([]int32{0, 2})
	if a != b {
		t.Fatalf("Intern not deduplicating: %d vs %d", a, b)
	}
}

func TestDeadLoops(t *testing.T) {
	d := newTestDFA(0, nil)
	w := d.Walk()
	defer w.Release()
	for c := uint8(0); c < 2; c++ {
		if t2 := w.States[Dead].Trans(c); t2 != Dead {
			t.Fatalf("Dead.Trans(%d) = %d, want Dead", c, t2)
		}
	}
}

func TestOverflowSentinelIsCached(t *testing.T) {
	d := newTestDFA(2, nil) // room for Dead + start only
	start := d.Intern([]int32{0})
	w := d.Walk()
	defer w.Release()
	if t2 := w.Resolve(start, 0); t2 != Overflow {
		t.Fatalf("Resolve past bound = %d, want Overflow", t2)
	}
	if t2 := w.States[start].Trans(0); t2 != Overflow {
		t.Fatalf("Overflow not cached: Trans = %d", t2)
	}
}

func TestSeedInjection(t *testing.T) {
	d := newTestDFA(0, nil)
	seed := d.Seed([]int32{1})
	empty := d.Seed(nil)
	start := d.Intern([]int32{0})
	w := d.Walk()
	defer w.Release()
	got := w.Inject(start, seed)
	if got == Overflow || got == Dead {
		t.Fatalf("Inject = %d", got)
	}
	wantSet := []int32{0, 1}
	if s := w.States[got].Set; len(s) != 2 || s[0] != wantSet[0] || s[1] != wantSet[1] {
		t.Fatalf("injected set = %v, want %v", s, wantSet)
	}
	if again := w.Inject(start, seed); again != got {
		t.Fatalf("injection not cached: %d vs %d", again, got)
	}
	// Injecting an empty seed into Dead stays Dead.
	if got := w.Inject(Dead, empty); got != Dead {
		t.Fatalf("Inject(Dead, ∅) = %d, want Dead", got)
	}
}

// TestStaleSnapshotResolves pins the publish order: a walk from a
// snapshot taken before another call interned its path meets target ids
// past the snapshot's end, resolves them instead of indexing them, and
// still accepts exactly what the reference does.
func TestStaleSnapshotResolves(t *testing.T) {
	d := newTestDFA(0, nil)
	start := d.Intern([]int32{0})
	old := d.Snapshot()
	input := []uint8{1, 0, 0, 1}
	runWalk(d, start, input) // another call interns the path's states
	if d.Len() <= len(old) {
		t.Fatalf("the other walk interned nothing: %d states", d.Len())
	}
	accept, stale := walk(d, old, start, input)
	if stale == 0 {
		t.Fatal("walk from the old snapshot never met an id past it")
	}
	if want := refAccept(input); accept != want {
		t.Fatalf("input %v: accept=%v, want %v", input, accept, want)
	}
}

// TestConcurrentWalks exercises lock-free snapshot walks against locked
// fills under the race detector: many goroutines warming one cache.
func TestConcurrentWalks(t *testing.T) {
	d := newTestDFA(0, nil)
	start := d.Intern([]int32{0})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 300; trial++ {
				input := make([]uint8, rng.Intn(16))
				for i := range input {
					input[i] = uint8(rng.Intn(2))
				}
				if got, want := runWalk(d, start, input), refAccept(input); got != want {
					t.Errorf("input %v: accept=%v, want %v", input, got, want)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// simAccept runs testNFA from the subset set directly, with no DFA.
func simAccept(set []int32, input []uint8) bool {
	cur := map[int32]bool{}
	for _, q := range set {
		cur[q] = true
	}
	for _, c := range input {
		next := map[int32]bool{}
		for q := range cur {
			testNFA{}.succ(q, c, func(to int32) { next[to] = true })
		}
		cur = next
	}
	return cur[2]
}

// TestConcurrentInternWhileWalking: Intern is a walk-time call too (vsa's
// tag DFA interns every window's seed), so it runs under the write lock
// while other goroutines walk and resolve. Half the goroutines intern
// random seed subsets, half the start subset, and every one walks from
// what it interned: each state's Set must be the subset it was interned
// for, and each walk must accept what a direct simulation from its seed
// does.
func TestConcurrentInternWhileWalking(t *testing.T) {
	d := newTestDFA(0, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for trial := 0; trial < 300; trial++ {
				seed := []int32{0}
				if g%2 == 1 {
					seed = seed[:0]
					for q := int32(0); q < 3; q++ {
						if rng.Intn(2) == 0 {
							seed = append(seed, q)
						}
					}
				}
				s := d.Intern(seed)
				if got := d.Snapshot()[s].Set; !slices.Equal(got, seed) {
					t.Errorf("Intern(%v) = state %d holding %v", seed, s, got)
					return
				}
				input := make([]uint8, rng.Intn(16))
				for i := range input {
					input[i] = uint8(rng.Intn(2))
				}
				if got, want := runWalk(d, s, input), simAccept(seed, input); got != want {
					t.Errorf("seed %v, input %v: accept=%v, want %v", seed, input, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
