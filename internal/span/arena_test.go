package span

import (
	"slices"
	"testing"
)

func TestTupleArenaCarving(t *testing.T) {
	var a TupleArena
	// Carve enough tuples to cross several slab boundaries and check
	// zeroing, isolation and capacity clamping throughout.
	tuples := make([]Tuple, 0, 3000)
	for i := 0; i < 3000; i++ {
		tu := a.Tuple(3)
		if len(tu) != 3 || cap(tu) != 3 {
			t.Fatalf("tuple %d: len=%d cap=%d, want 3/3", i, len(tu), cap(tu))
		}
		for j, s := range tu {
			if s != Invalid {
				t.Fatalf("tuple %d slot %d not zeroed: %v", i, j, s)
			}
		}
		for j := range tu {
			tu[j] = New(i+1, i+j+1)
		}
		tuples = append(tuples, tu)
	}
	// Writes through one tuple must never be visible through another.
	for i, tu := range tuples {
		for j, s := range tu {
			if want := New(i+1, i+j+1); s != want {
				t.Fatalf("tuple %d slot %d clobbered: %v, want %v", i, j, s, want)
			}
		}
	}
	// Appending to a carved tuple must reallocate, not overwrite the
	// arena neighbor carved right after it.
	first := a.Tuple(2)
	second := a.Tuple(2)
	_ = append(first, New(9, 9))
	if second[0] != Invalid {
		t.Fatalf("append through a carved tuple clobbered its neighbor: %v", second[0])
	}
}

func TestTupleArenaOversizedAndEmpty(t *testing.T) {
	var a TupleArena
	big := a.Tuple(2 * tupleArenaMaxSlab)
	if len(big) != 2*tupleArenaMaxSlab {
		t.Fatalf("oversized tuple len=%d", len(big))
	}
	empty := a.Tuple(0)
	if len(empty) != 0 {
		t.Fatalf("empty tuple len=%d", len(empty))
	}
}

// TestTupleArenaGrowsGeometrically pins the slab schedule: a worker that
// produces a handful of tuples must not pay for the steady-state slab,
// and one that produces many must reach it after six doublings.
func TestTupleArenaGrowsGeometrically(t *testing.T) {
	var a TupleArena
	few := testing.AllocsPerRun(10, func() {
		a = TupleArena{}
		for i := 0; i < 16; i++ {
			a.Tuple(1)
		}
	})
	if few != 1 || cap(a.slab) != tupleArenaMinSlab {
		t.Fatalf("16 one-span tuples: %v allocations, slab of %d spans; want 1 allocation of %d", few, cap(a.slab), tupleArenaMinSlab)
	}
	a = TupleArena{}
	var slabs []int
	for i := 0; i < 3*tupleArenaMaxSlab; i++ {
		if a.Tuple(1); len(a.slab) == 1 {
			slabs = append(slabs, cap(a.slab))
		}
	}
	want := []int{64, 128, 256, 512, 1024, 2048, 4096, 4096, 4096}
	if !slices.Equal(slabs, want) {
		t.Fatalf("slab sizes %v, want %v", slabs, want)
	}
}
