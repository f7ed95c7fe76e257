package automata

import (
	"errors"
	"slices"
	"testing"
)

// TestExplorerIDsAreQueueOrder walks a grid of configurations (i, j) with
// steps i+1 and j+1 below n and checks that ids are first-seen order, that
// revisits report the old id, and that every path leads back to its
// configuration.
func TestExplorerIDsAreQueueOrder(t *testing.T) {
	const n = 5
	x := Explorer{Trace: true}
	if id, added, err := x.Visit(0, 0); id != 0 || !added || err != nil {
		t.Fatalf("Visit(start) = (%d, %v, %v), want (0, true, nil)", id, added, err)
	}
	var order [][]int32
	for id := int32(0); int(id) < x.Len(); id++ {
		c := x.Config(id)
		i, j := c[0], c[1]
		order = append(order, []int32{i, j})
		for sym, next := range [][2]int32{{i + 1, j}, {i, j + 1}} {
			if next[0] >= n || next[1] >= n {
				continue
			}
			before := x.Len()
			got, added, err := x.Step(id, int32(sym), next[0], next[1])
			if err != nil {
				t.Fatal(err)
			}
			if added != (int(got) == before) || added != (x.Len() == before+1) {
				t.Fatalf("Step(%v) = (%d, %v) with %d configurations before", next, got, added, before)
			}
		}
	}
	if x.Len() != n*n {
		t.Fatalf("Len = %d, want %d", x.Len(), n*n)
	}
	for id, c := range order {
		// Breadth first: ids never decrease in i+j.
		if id > 0 && c[0]+c[1] < order[id-1][0]+order[id-1][1] {
			t.Fatalf("configuration %d = %v comes after %v", id, c, order[id-1])
		}
		got, added, _ := x.Visit(c...)
		if int(got) != id || added {
			t.Fatalf("revisit of %v = (%d, %v), want (%d, false)", c, got, added, id)
		}
		// Symbol 0 steps i, symbol 1 steps j; a shortest path has i + j steps.
		path := x.Path(int32(id))
		var i, j int32
		for _, s := range path {
			if s == 0 {
				i++
			} else {
				j++
			}
		}
		if i != c[0] || j != c[1] {
			t.Fatalf("Path(%v) = %v leads to (%d, %d)", c, path, i, j)
		}
	}
	if p := x.Path(0); p != nil {
		t.Fatalf("Path(start) = %v, want nil", p)
	}
}

// TestExplorerLimit pins the bound: Limit configurations fit, the next new
// one fails with ErrTooLarge, and a revisit never fails.
func TestExplorerLimit(t *testing.T) {
	x := Explorer{Limit: 3}
	for i := int32(0); i < 3; i++ {
		if _, _, err := x.Visit(i); err != nil {
			t.Fatalf("Visit(%d) under the limit: %v", i, err)
		}
	}
	if _, added, err := x.Visit(1); added || err != nil {
		t.Fatalf("revisit at the limit = (%v, %v), want (false, nil)", added, err)
	}
	if _, _, err := x.Visit(7); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Visit past the limit: err = %v, want ErrTooLarge", err)
	}
	var free Explorer // no limit
	for i := int32(0); i < 100; i++ {
		if _, _, err := free.Visit(i, -i); err != nil {
			t.Fatal(err)
		}
	}
	if got := free.Config(42); !slices.Equal(got, []int32{42, -42}) {
		t.Fatalf("Config(42) = %v", got)
	}
}
