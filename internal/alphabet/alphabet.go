// Package alphabet provides byte classes (sets of alphabet symbols) and
// partition refinement into atoms. Documents in this library are byte
// strings; automaton transitions are labeled with byte classes so that
// realistic extractors (sentence splitters, token extractors, ...) stay
// compact. Atoms are the coarsest partition of the byte space that refines
// every class in a given collection; decision procedures work atom-by-atom.
package alphabet

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Class is a set of bytes, represented as a 256-bit set.
type Class [4]uint64

// Empty is the empty byte class.
var Empty Class

// Any is the class containing all 256 bytes (the paper's Σ when the
// alphabet is unconstrained).
var Any = Class{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}

// Of returns the class containing exactly the given bytes.
func Of(bs ...byte) Class {
	var c Class
	for _, b := range bs {
		c.Add(b)
	}
	return c
}

// OfString returns the class of all bytes occurring in s.
func OfString(s string) Class {
	var c Class
	for i := 0; i < len(s); i++ {
		c.Add(s[i])
	}
	return c
}

// Range returns the class of all bytes b with lo ≤ b ≤ hi.
func Range(lo, hi byte) Class {
	var c Class
	for b := int(lo); b <= int(hi); b++ {
		c.Add(byte(b))
	}
	return c
}

// Add inserts b into the class.
func (c *Class) Add(b byte) { c[b>>6] |= 1 << (b & 63) }

// Remove deletes b from the class.
func (c *Class) Remove(b byte) { c[b>>6] &^= 1 << (b & 63) }

// Has reports whether b is in the class.
func (c Class) Has(b byte) bool { return c[b>>6]&(1<<(b&63)) != 0 }

// IsEmpty reports whether the class contains no bytes.
func (c Class) IsEmpty() bool { return c == Empty }

// Len returns the number of bytes in the class.
func (c Class) Len() int {
	return bits.OnesCount64(c[0]) + bits.OnesCount64(c[1]) +
		bits.OnesCount64(c[2]) + bits.OnesCount64(c[3])
}

// Intersect returns c ∩ o.
func (c Class) Intersect(o Class) Class {
	return Class{c[0] & o[0], c[1] & o[1], c[2] & o[2], c[3] & o[3]}
}

// Union returns c ∪ o.
func (c Class) Union(o Class) Class {
	return Class{c[0] | o[0], c[1] | o[1], c[2] | o[2], c[3] | o[3]}
}

// Minus returns c ∖ o.
func (c Class) Minus(o Class) Class {
	return Class{c[0] &^ o[0], c[1] &^ o[1], c[2] &^ o[2], c[3] &^ o[3]}
}

// Complement returns the class of all bytes not in c.
func (c Class) Complement() Class { return Any.Minus(c) }

// Intersects reports whether c ∩ o is nonempty.
func (c Class) Intersects(o Class) bool {
	return c[0]&o[0] != 0 || c[1]&o[1] != 0 || c[2]&o[2] != 0 || c[3]&o[3] != 0
}

// ContainsClass reports whether o ⊆ c.
func (c Class) ContainsClass(o Class) bool { return o.Minus(c).IsEmpty() }

// Min returns the smallest byte in the class; ok is false if c is empty.
func (c Class) Min() (b byte, ok bool) {
	for w := 0; w < 4; w++ {
		if c[w] != 0 {
			return byte(w*64 + bits.TrailingZeros64(c[w])), true
		}
	}
	return 0, false
}

// Bytes returns the members of the class in increasing order.
func (c Class) Bytes() []byte {
	out := make([]byte, 0, c.Len())
	for w := 0; w < 4; w++ {
		word := c[w]
		for word != 0 {
			t := bits.TrailingZeros64(word)
			out = append(out, byte(w*64+t))
			word &^= 1 << t
		}
	}
	return out
}

// String renders the class compactly, collapsing runs into ranges.
func (c Class) String() string {
	if c == Any {
		return "Σ"
	}
	if c.IsEmpty() {
		return "∅"
	}
	bs := c.Bytes()
	var parts []string
	for i := 0; i < len(bs); {
		j := i
		for j+1 < len(bs) && bs[j+1] == bs[j]+1 {
			j++
		}
		if j > i+1 {
			parts = append(parts, fmt.Sprintf("%s-%s", byteName(bs[i]), byteName(bs[j])))
		} else {
			for k := i; k <= j; k++ {
				parts = append(parts, byteName(bs[k]))
			}
		}
		i = j + 1
	}
	return "[" + strings.Join(parts, "") + "]"
}

func byteName(b byte) string {
	if b >= 0x21 && b <= 0x7e && b != '[' && b != ']' && b != '-' && b != '\\' && b != '^' {
		return string(b)
	}
	return fmt.Sprintf("\\x%02x", b)
}

// Atoms computes the coarsest partition of the byte space into nonempty
// classes ("atoms") such that every input class is a union of atoms. Only
// bytes covered by at least one input class are partitioned; bytes outside
// every class never label a transition and are irrelevant. The result is
// deterministic (sorted by smallest member).
func Atoms(classes []Class) []Class {
	var covered Class
	for _, c := range classes {
		covered = covered.Union(c)
	}
	if covered.IsEmpty() {
		return nil
	}
	// Refine in place: an atom a class cuts keeps its inside and appends
	// its outside, which later classes then refine in turn.
	atoms := append(make([]Class, 0, 8), covered)
	for _, c := range classes {
		for i, n := 0, len(atoms); i < n; i++ {
			in, out := atoms[i].Intersect(c), atoms[i].Minus(c)
			if !in.IsEmpty() && !out.IsEmpty() {
				atoms[i] = in
				atoms = append(atoms, out)
			}
		}
	}
	slices.SortFunc(atoms, func(a, b Class) int {
		x, _ := a.Min()
		y, _ := b.Min()
		return cmp.Compare(x, y)
	})
	return atoms
}

// Reps returns one representative byte per atom, in atom order.
func Reps(atoms []Class) []byte {
	reps := make([]byte, len(atoms))
	for i, a := range atoms {
		b, ok := a.Min()
		if !ok {
			panic("alphabet: empty atom")
		}
		reps[i] = b
	}
	return reps
}

// ClassTable computes the byte→equivalence-class table for a collection of
// classes: two bytes get the same index iff they are members of exactly the
// same input classes, so an evaluator that resolved a transition for one
// byte of an equivalence class has resolved it for all of them. This is the
// dense (256-entry, O(1)-lookup) counterpart of Atoms, sized for the hot
// path: classOf[b] indexes into per-class transition tables. reps holds one
// representative byte per index. The equivalence classes are the atoms of
// the classes plus Σ (so bytes in no class form one class of their own),
// indexed in Atoms' order; at most 256 exist, so uint8 never overflows and
// indices are dense in [0, len(reps)).
func ClassTable(classes []Class) (classOf [256]uint8, reps []byte) {
	atoms := Atoms(append(classes[:len(classes):len(classes)], Any))
	for i, a := range atoms {
		for w, word := range a {
			for ; word != 0; word &= word - 1 {
				classOf[w*64+bits.TrailingZeros64(word)] = uint8(i)
			}
		}
	}
	return classOf, Reps(atoms)
}
