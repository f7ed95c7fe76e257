package automata

import (
	"math"
	"slices"
	"testing"
)

// mapSetTable is SetTable as it was before it became the tree's one
// interning table: a map keyed by the vector's little-endian bytes. It is
// kept here — in a test file only — as the oracle of FuzzSetTableVsMap.
type mapSetTable struct {
	index map[string]int32
	flat  []int32
	end   []int
	key   []byte
}

func (t *mapSetTable) Len() int { return len(t.end) }

func (t *mapSetTable) Set(id int32) []int32 {
	lo := 0
	if id > 0 {
		lo = t.end[id-1]
	}
	return t.flat[lo:t.end[id]:t.end[id]]
}

func (t *mapSetTable) keyOf(v []int32) string {
	key := t.key[:0]
	for _, q := range v {
		key = append(key, byte(q), byte(q>>8), byte(q>>16), byte(q>>24))
	}
	t.key = key
	return string(key)
}

func (t *mapSetTable) Intern(v []int32) (int32, bool) {
	key := t.keyOf(v)
	if id, ok := t.index[key]; ok {
		return id, false
	}
	if t.index == nil {
		t.index = map[string]int32{}
	}
	id := int32(len(t.end))
	t.index[key] = id
	t.flat = append(t.flat, v...)
	t.end = append(t.end, len(t.flat))
	return id, true
}

func (t *mapSetTable) Lookup(v []int32) (int32, bool) {
	id, ok := t.index[t.keyOf(v)]
	return id, ok
}

func (t *mapSetTable) Reset() {
	clear(t.index)
	t.flat, t.end = t.flat[:0], t.end[:0]
}

// FuzzSetTableVsMap runs a fuzzed script of Intern, Lookup, Set, Len and
// Reset calls on a SetTable and on the map-keyed table it replaced. The
// vectors vary in length, empty included, with members small, negative
// and large; a bulk step interns up to 64 vectors at once, so a script
// crosses the growth at half load. The two tables must agree on every
// id, added flag and stored vector, and after a Reset no vector interned
// before it may be found.
func FuzzSetTableVsMap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 1, 2, 1, 2, 0, 0, 3})
	f.Add([]byte{5, 40, 1, 4, 0, 0, 7, 5, 60, 2, 4, 30, 5, 50, 0, 1, 0})
	f.Add([]byte{0, 3, 0x41, 0x82, 0xc3, 4, 0, 0, 3, 0x41, 0x82, 0xc3, 1, 3, 0x41, 0x82, 0xc3, 5, 64, 4, 200})
	f.Fuzz(func(t *testing.T, script []byte) {
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		vec := func() []int32 {
			v := make([]int32, next()%6)
			for i := range v {
				b := next()
				v[i] = int32(b&0x3f) - 8
				if b&0x40 != 0 {
					v[i] <<= 24
				}
			}
			return v
		}
		var got SetTable
		var want mapSetTable
		var before [][]int32 // vectors interned since the last Reset
		intern := func(v []int32) {
			gid, gadd := got.Intern(v)
			wid, wadd := want.Intern(v)
			if gid != wid || gadd != wadd {
				t.Fatalf("Intern(%v) = (%d, %v), the map says (%d, %v)", v, gid, gadd, wid, wadd)
			}
			before = append(before, v)
		}
		for len(script) > 0 {
			switch next() % 5 {
			case 0:
				intern(vec())
			case 1:
				v := vec()
				gid, gok := got.Lookup(v)
				wid, wok := want.Lookup(v)
				if gok != wok || gok && gid != wid {
					t.Fatalf("Lookup(%v) = (%d, %v), the map says (%d, %v)", v, gid, gok, wid, wok)
				}
			case 2:
				if n := want.Len(); n > 0 {
					id := int32(int(next()) % n)
					if g, w := got.Set(id), want.Set(id); !slices.Equal(g, w) {
						t.Fatalf("Set(%d) = %v, the map says %v", id, g, w)
					}
				}
			case 3:
				n, seed := int(next()%65), int32(next())
				for i := range int32(n) {
					intern(append(make([]int32, i%4), seed, i))
				}
			case 4:
				got.Reset(int(next() % 64))
				want.Reset()
				for _, v := range before {
					if id, ok := got.Lookup(v); ok {
						t.Fatalf("after Reset, Lookup(%v) found id %d", v, id)
					}
				}
				before = before[:0]
			}
			if got.Len() != want.Len() {
				t.Fatalf("Len() = %d, the map says %d", got.Len(), want.Len())
			}
		}
		for id := range int32(want.Len()) {
			if g, w := got.Set(id), want.Set(id); !slices.Equal(g, w) {
				t.Fatalf("Set(%d) = %v, the map says %v", id, g, w)
			}
		}
	})
}

// TestSetTableResetAtVersionWrap stamps slots with version 1, jumps the
// version to its maximum as if 2³² − 2 Resets had passed, and resets
// once more: the version wraps back to 1, so the slots must be cleared
// then, or the old epoch's slots would answer for vectors that are gone.
func TestSetTableResetAtVersionWrap(t *testing.T) {
	var tab SetTable
	vecs := [][]int32{{}, {0}, {1, 2}, {0, 0, 0}}
	for i, v := range vecs {
		if id, added := tab.Intern(v); id != int32(i) || !added {
			t.Fatalf("Intern(%v) = (%d, %v), want (%d, true)", v, id, added, i)
		}
	}
	if tab.ver != 1 {
		t.Fatalf("version of a fresh table = %d, want 1", tab.ver)
	}
	tab.ver = math.MaxUint32
	tab.Reset(0)
	if tab.ver != 1 {
		t.Fatalf("version after the wrap = %d, want 1", tab.ver)
	}
	for _, v := range vecs {
		if id, ok := tab.Lookup(v); ok {
			t.Fatalf("after the wrapping Reset, Lookup(%v) found id %d", v, id)
		}
	}
	for i, v := range slices.Backward(vecs) {
		if id, added := tab.Intern(v); id != int32(len(vecs)-1-i) || !added {
			t.Fatalf("Intern(%v) after the wrap = (%d, %v), want (%d, true)", v, id, added, len(vecs)-1-i)
		}
	}
}
