package alphabet

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestClassBasics(t *testing.T) {
	c := Of('a', 'b', 'z')
	if !c.Has('a') || !c.Has('z') || c.Has('c') {
		t.Fatal("membership broken")
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	c.Remove('b')
	if c.Has('b') || c.Len() != 2 {
		t.Fatal("Remove broken")
	}
	if Any.Len() != 256 || Empty.Len() != 0 {
		t.Fatal("Any/Empty wrong")
	}
}

func TestRangeAndString(t *testing.T) {
	r := Range('a', 'e')
	if r.Len() != 5 || !r.Has('c') || r.Has('f') {
		t.Fatal("Range broken")
	}
	if got := OfString("hello"); got.Len() != 4 { // h e l o
		t.Fatalf("OfString dedupe broken: %d", got.Len())
	}
}

func TestSetAlgebra(t *testing.T) {
	f := func(x, y, z uint8) bool {
		a := Of(x, y)
		b := Of(y, z)
		u := a.Union(b)
		i := a.Intersect(b)
		m := a.Minus(b)
		if !u.Has(x) || !u.Has(y) || !u.Has(z) {
			return false
		}
		if !i.Has(y) {
			return false
		}
		if m.Has(y) && y != x {
			return false
		}
		if a.Complement().Intersects(a) {
			return false
		}
		return a.Union(a.Complement()) == Any
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContainsClassAndIntersects(t *testing.T) {
	a := Range('a', 'z')
	b := Range('c', 'f')
	if !a.ContainsClass(b) || b.ContainsClass(a) {
		t.Fatal("ContainsClass broken")
	}
	if !a.Intersects(b) || a.Intersects(Range('0', '9')) {
		t.Fatal("Intersects broken")
	}
}

func TestMinAndBytes(t *testing.T) {
	c := Of('q', 'b', 0xff)
	if m, ok := c.Min(); !ok || m != 'b' {
		t.Fatalf("Min = %v", m)
	}
	bs := c.Bytes()
	if len(bs) != 3 || bs[0] != 'b' || bs[2] != 0xff {
		t.Fatalf("Bytes = %v", bs)
	}
	if _, ok := Empty.Min(); ok {
		t.Fatal("Min of empty class must not be ok")
	}
}

// TestAtoms verifies the defining properties of the atom partition: atoms
// are disjoint, cover exactly the union of the inputs, and every input
// class is a disjoint union of atoms.
func TestAtoms(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		var classes []Class
		n := rng.Intn(6)
		for i := 0; i < n; i++ {
			lo := byte(rng.Intn(200))
			hi := lo + byte(rng.Intn(40))
			classes = append(classes, Range(lo, hi))
		}
		atoms := Atoms(classes)
		var union, cover Class
		for _, c := range classes {
			union = union.Union(c)
		}
		for i, a := range atoms {
			if a.IsEmpty() {
				t.Fatal("empty atom")
			}
			for j := i + 1; j < len(atoms); j++ {
				if a.Intersects(atoms[j]) {
					t.Fatal("atoms not disjoint")
				}
			}
			cover = cover.Union(a)
		}
		if cover != union {
			t.Fatal("atoms must cover exactly the union of classes")
		}
		for _, c := range classes {
			var rebuilt Class
			for _, a := range atoms {
				if c.Intersects(a) {
					if !c.ContainsClass(a) {
						t.Fatal("atom straddles a class boundary")
					}
					rebuilt = rebuilt.Union(a)
				}
			}
			if rebuilt != c {
				t.Fatal("class is not a union of atoms")
			}
		}
	}
}

func TestAtomsEmptyAndReps(t *testing.T) {
	if Atoms(nil) != nil {
		t.Fatal("no classes should give no atoms")
	}
	atoms := Atoms([]Class{Range('a', 'd'), Range('c', 'f')})
	if len(atoms) != 3 {
		t.Fatalf("expected 3 atoms, got %d", len(atoms))
	}
	reps := Reps(atoms)
	if len(reps) != 3 || reps[0] != 'a' || reps[1] != 'c' || reps[2] != 'e' {
		t.Fatalf("Reps = %v", reps)
	}
}

func TestClassStringStable(t *testing.T) {
	got := Range('a', 'c').String()
	if got != "[a-c]" {
		t.Fatalf("String = %q", got)
	}
	if Any.String() != "Σ" || Empty.String() != "∅" {
		t.Fatal("special class rendering broken")
	}
}

// classTableRef is the signature-map ClassTable: every byte's membership
// bits across the classes, as a string key, interned to an index in byte
// order. It is the oracle the refinement-based ClassTable is held to.
func classTableRef(classes []Class) (classOf [256]uint8, reps []byte) {
	words := max(1, (len(classes)+63)/64)
	key := make([]byte, 8*words)
	index := map[string]uint8{}
	for b := 0; b < 256; b++ {
		clear(key)
		for i, c := range classes {
			if c.Has(byte(b)) {
				key[i/8] |= 1 << (i % 8)
			}
		}
		id, ok := index[string(key)]
		if !ok {
			id = uint8(len(reps))
			index[string(key)] = id
			reps = append(reps, byte(b))
		}
		classOf[b] = id
	}
	return classOf, reps
}

// randomClass draws a range, a complement of one, a few scattered bytes
// or a random bitset, so that the lists below mix coarse and fine cuts.
func randomClass(rng *rand.Rand) Class {
	switch rng.Intn(4) {
	case 0:
		lo := byte(rng.Intn(256))
		return Range(lo, lo+byte(rng.Intn(int(255-lo)+1)))
	case 1:
		lo := byte(rng.Intn(200))
		return Range(lo, lo+byte(rng.Intn(50))).Complement()
	case 2:
		var c Class
		for i := rng.Intn(4); i >= 0; i-- {
			c.Add(byte(rng.Intn(256)))
		}
		return c
	default:
		return Class{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
	}
}

// TestClassTableMatchesSignatureOracle holds ClassTable to classTableRef
// on random lists of 1–130 classes — across the 64-class word boundary
// of the oracle's signatures — with repeated, empty and full classes
// mixed in.
func TestClassTableMatchesSignatureOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		n := 1 + rng.Intn(130)
		if iter%4 == 0 {
			n = 60 + rng.Intn(10) // straddle 64 more often
		}
		classes := make([]Class, n)
		for i := range classes {
			switch rng.Intn(20) {
			case 0:
				classes[i] = Empty
			case 1:
				classes[i] = Any
			case 2:
				classes[i] = classes[rng.Intn(i+1)]
			default:
				classes[i] = randomClass(rng)
			}
		}
		gotOf, gotReps := ClassTable(classes)
		wantOf, wantReps := classTableRef(classes)
		if gotOf != wantOf || !slices.Equal(gotReps, wantReps) {
			t.Fatalf("iter %d (%d classes): ClassTable differs from the signature oracle:\nreps %v\nwant %v", iter, n, gotReps, wantReps)
		}
	}
	if of, reps := ClassTable(nil); of != [256]uint8{} || !slices.Equal(reps, []byte{0}) {
		t.Fatalf("ClassTable(nil) = %v, %v; want one class", of, reps)
	}
}

func BenchmarkClassTable(b *testing.B) {
	// The classes of a typical word-list extractor over a sentence
	// splitter: letters, their complement, punctuation, single letters.
	word, punct := Range('a', 'z').Union(Range('0', '9')), OfString(".!?\n")
	classes := []Class{word, word.Complement(), punct, punct.Complement(), Any}
	for _, x := range []byte("goodbadpoorexcellent") {
		classes = append(classes, Of(x))
	}
	b.Run("refine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ClassTable(classes)
		}
	})
	b.Run("signature-oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			classTableRef(classes)
		}
	})
}
