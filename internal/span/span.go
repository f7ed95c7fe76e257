// Package span implements the basic objects of the document-spanner
// framework of Fagin et al. as used in "Split-Correctness in Information
// Extraction" (Doleschal et al., PODS 2019), Section 2: documents, spans,
// (V,d)-tuples, span relations, and the shift operator of Figure 1.
//
// A span [i,j⟩ of a document d of length n is a pair of 1-based positions
// with 1 ≤ i ≤ j ≤ n+1 and denotes the substring d[i..j-1]. Two spans are
// equal only if their endpoints are equal; equality of the selected
// substrings does not imply equality of the spans.
package span

import (
	"fmt"
	"slices"
	"strings"
)

// Span is an interval [Start, End⟩ of 1-based positions in a document.
// The zero value is not a valid span; valid spans satisfy 1 ≤ Start ≤ End.
type Span struct {
	Start int // inclusive, 1-based
	End   int // exclusive, 1-based
}

// Invalid is a sentinel used for unset variables in partially built tuples.
var Invalid = Span{0, 0}

// New returns the span [i,j⟩. It panics if i < 1 or j < i, which always
// indicates a programming error rather than bad input data.
func New(i, j int) Span {
	if i < 1 || j < i {
		panic(fmt.Sprintf("span: invalid span [%d,%d⟩", i, j))
	}
	return Span{i, j}
}

// FromByteOffsets converts a half-open 0-based byte interval [lo,hi) into
// the paper's 1-based span notation.
func FromByteOffsets(lo, hi int) Span { return New(lo+1, hi+1) }

// IsValid reports whether s is a well-formed span (1 ≤ Start ≤ End).
func (s Span) IsValid() bool { return s.Start >= 1 && s.Start <= s.End }

// ValidFor reports whether s is a span of a document of length n,
// i.e. 1 ≤ Start ≤ End ≤ n+1.
func (s Span) ValidFor(n int) bool { return s.IsValid() && s.End <= n+1 }

// Len returns the number of symbols covered by s.
func (s Span) Len() int { return s.End - s.Start }

// IsEmpty reports whether s covers no symbols.
func (s Span) IsEmpty() bool { return s.Start == s.End }

// In returns the substring d[Start..End-1] selected by s.
// It panics if s is not a span of d.
func (s Span) In(d string) string {
	if !s.ValidFor(len(d)) {
		panic(fmt.Sprintf("span: %v not a span of document of length %d", s, len(d)))
	}
	return d[s.Start-1 : s.End-1]
}

// Shift implements the shift operator s' ≫ s of Figure 1: it re-interprets
// s (a span of the substring selected by by) as a span of the original
// document, shifting it by.Start-1 positions to the right.
func (s Span) Shift(by Span) Span {
	return Span{s.Start + by.Start - 1, s.End + by.Start - 1}
}

// Unshift is the inverse of Shift: (s.Shift(by)).Unshift(by) == s.
// It panics if s does not lie within by.
func (s Span) Unshift(by Span) Span {
	if !by.Contains(s) {
		panic(fmt.Sprintf("span: %v does not contain %v", by, s))
	}
	return Span{s.Start - by.Start + 1, s.End - by.Start + 1}
}

// Overlaps reports whether s and o overlap, following the paper's
// definition: [i,j⟩ and [i',j'⟩ overlap if i ≤ i' < j or i' ≤ i < j'.
func (s Span) Overlaps(o Span) bool {
	return (s.Start <= o.Start && o.Start < s.End) ||
		(o.Start <= s.Start && s.Start < o.End)
}

// Disjoint reports whether s and o are disjoint (do not overlap).
func (s Span) Disjoint(o Span) bool { return !s.Overlaps(o) }

// Contains reports whether s contains o: i ≤ i' ≤ j' ≤ j.
func (s Span) Contains(o Span) bool {
	return s.Start <= o.Start && o.End <= s.End
}

// String renders s in the paper's [i,j⟩ notation.
func (s Span) String() string { return fmt.Sprintf("[%d,%d⟩", s.Start, s.End) }

// Compare orders spans lexicographically by (Start, End).
func (s Span) Compare(o Span) int {
	switch {
	case s.Start != o.Start:
		if s.Start < o.Start {
			return -1
		}
		return 1
	case s.End != o.End:
		if s.End < o.End {
			return -1
		}
		return 1
	}
	return 0
}

// AllenRelation is one of the thirteen basic relations of Allen's interval
// algebra, specialized to (possibly empty) spans. It is used by tests and
// by the disjointness checker's documentation; Overlaps above is the
// paper's coarser predicate.
type AllenRelation int

// The thirteen Allen relations between spans a and b.
const (
	Before        AllenRelation = iota // a entirely before b, with a gap
	Meets                              // a.End == b.Start (and a,b not both empty there)
	OverlapsAllen                      // proper overlap, a starts first
	Starts                             // same start, a ends first
	During                             // a strictly inside b
	Finishes                           // same end, a starts later
	Equal                              // identical spans
	FinishedBy                         // inverse of Finishes
	ContainsAllen                      // inverse of During
	StartedBy                          // inverse of Starts
	OverlappedBy                       // inverse of OverlapsAllen
	MetBy                              // inverse of Meets
	After                              // inverse of Before
)

var allenNames = [...]string{
	"before", "meets", "overlaps", "starts", "during", "finishes", "equal",
	"finishedBy", "contains", "startedBy", "overlappedBy", "metBy", "after",
}

func (r AllenRelation) String() string {
	if r < 0 || int(r) >= len(allenNames) {
		return fmt.Sprintf("AllenRelation(%d)", int(r))
	}
	return allenNames[r]
}

// Allen returns the Allen relation of a with respect to b.
func Allen(a, b Span) AllenRelation {
	switch {
	case a == b:
		return Equal
	case a.End < b.Start:
		return Before
	case b.End < a.Start:
		return After
	case a.End == b.Start:
		return Meets
	case b.End == a.Start:
		return MetBy
	case a.Start == b.Start:
		if a.End < b.End {
			return Starts
		}
		return StartedBy
	case a.End == b.End:
		if a.Start > b.Start {
			return Finishes
		}
		return FinishedBy
	case a.Start > b.Start && a.End < b.End:
		return During
	case b.Start > a.Start && b.End < a.End:
		return ContainsAllen
	case a.Start < b.Start:
		return OverlapsAllen
	default:
		return OverlappedBy
	}
}

// Tuple is a (V,d)-tuple: an assignment of one span per variable. The
// variable names are kept by the enclosing Relation; a Tuple is positional.
type Tuple []Span

// Equal reports whether t and o assign the same spans position-wise.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// Shift shifts every span of t by the span by, implementing t ≫ s.
func (t Tuple) Shift(by Span) Tuple {
	out := make(Tuple, len(t))
	for i, s := range t {
		out[i] = s.Shift(by)
	}
	return out
}

// Unshift undoes Shift; it panics if some span of t lies outside by.
func (t Tuple) Unshift(by Span) Tuple {
	out := make(Tuple, len(t))
	for i, s := range t {
		out[i] = s.Unshift(by)
	}
	return out
}

// Hull returns the minimal span covering every span of t, i.e. the span
// [min starts, max ends⟩ used by the cover condition (Definition 5.2).
// It panics on an empty tuple (Boolean spanners have no hull).
func (t Tuple) Hull() Span {
	if len(t) == 0 {
		panic("span: hull of an empty tuple")
	}
	h := t[0]
	for _, s := range t[1:] {
		if s.Start < h.Start {
			h.Start = s.Start
		}
		if s.End > h.End {
			h.End = s.End
		}
	}
	return h
}

// Compare orders tuples lexicographically span-by-span.
func (t Tuple) Compare(o Tuple) int {
	for i := range t {
		if i >= len(o) {
			return 1
		}
		if c := t[i].Compare(o[i]); c != 0 {
			return c
		}
	}
	if len(t) < len(o) {
		return -1
	}
	return 0
}

// Key returns a compact string key identifying t, for use in map-based
// de-duplication.
func (t Tuple) Key() string {
	var b strings.Builder
	for _, s := range t {
		fmt.Fprintf(&b, "%d:%d;", s.Start, s.End)
	}
	return b.String()
}

func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, s := range t {
		parts[i] = s.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Relation is a (V,d)-relation: a set of tuples over named variables.
// Tuples are positional with respect to Vars.
type Relation struct {
	Vars   []string
	Tuples []Tuple
}

// NewRelation returns an empty relation over the given variables.
func NewRelation(vars ...string) *Relation {
	return &Relation{Vars: append([]string(nil), vars...)}
}

// Add appends t if it is not already present. It returns true if added.
func (r *Relation) Add(t Tuple) bool {
	if len(t) != len(r.Vars) {
		panic(fmt.Sprintf("span: tuple arity %d does not match relation arity %d", len(t), len(r.Vars)))
	}
	for _, u := range r.Tuples {
		if u.Equal(t) {
			return false
		}
	}
	r.Tuples = append(r.Tuples, t)
	return true
}

// Has reports whether t is in the relation.
func (r *Relation) Has(t Tuple) bool {
	for _, u := range r.Tuples {
		if u.Equal(t) {
			return true
		}
	}
	return false
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Sort orders the tuples lexicographically, giving a canonical form.
// The split evaluators hand it concatenations of already sorted runs
// (one per worker), which pdqsort's pattern detection exploits.
func (r *Relation) Sort() {
	slices.SortFunc(r.Tuples, Tuple.Compare)
}

// Dedupe removes duplicate tuples in place (sorting first).
func (r *Relation) Dedupe() {
	r.Sort()
	out := r.Tuples[:0]
	for i, t := range r.Tuples {
		if i == 0 || !t.Equal(r.Tuples[i-1]) {
			out = append(out, t)
		}
	}
	r.Tuples = out
}

// Equal reports whether r and o are the same set of tuples over the same
// variable list. Both relations are sorted as a side effect.
func (r *Relation) Equal(o *Relation) bool {
	if len(r.Vars) != len(o.Vars) {
		return false
	}
	for i := range r.Vars {
		if r.Vars[i] != o.Vars[i] {
			return false
		}
	}
	r.Dedupe()
	o.Dedupe()
	if len(r.Tuples) != len(o.Tuples) {
		return false
	}
	for i := range r.Tuples {
		if !r.Tuples[i].Equal(o.Tuples[i]) {
			return false
		}
	}
	return true
}

// Project returns the projection of r onto the given variables, which must
// be a subset of r.Vars. Duplicate projected tuples are removed.
func (r *Relation) Project(vars []string) (*Relation, error) {
	idx := make([]int, len(vars))
	for i, v := range vars {
		j := indexOf(r.Vars, v)
		if j < 0 {
			return nil, fmt.Errorf("span: project: variable %q not in relation", v)
		}
		idx[i] = j
	}
	out := NewRelation(vars...)
	for _, t := range r.Tuples {
		p := make(Tuple, len(idx))
		for i, j := range idx {
			p[i] = t[j]
		}
		out.Add(p)
	}
	return out, nil
}

// Join returns the natural join r ⋈ o on shared variable names
// (Definition A.1). The result's variables are r.Vars followed by the
// variables of o not in r.
func (r *Relation) Join(o *Relation) *Relation {
	shared := [][2]int{} // (index in r, index in o)
	extra := []int{}     // indices in o of variables not in r
	for j, v := range o.Vars {
		if i := indexOf(r.Vars, v); i >= 0 {
			shared = append(shared, [2]int{i, j})
		} else {
			extra = append(extra, j)
		}
	}
	vars := append([]string(nil), r.Vars...)
	for _, j := range extra {
		vars = append(vars, o.Vars[j])
	}
	out := NewRelation(vars...)
	for _, t := range r.Tuples {
	next:
		for _, u := range o.Tuples {
			for _, p := range shared {
				if t[p[0]] != u[p[1]] {
					continue next
				}
			}
			joined := make(Tuple, 0, len(vars))
			joined = append(joined, t...)
			for _, j := range extra {
				joined = append(joined, u[j])
			}
			out.Add(joined)
		}
	}
	return out
}

// Union adds all tuples of o (which must have the same variables) to r.
func (r *Relation) Union(o *Relation) error {
	if len(r.Vars) != len(o.Vars) {
		return fmt.Errorf("span: union: relations not union compatible")
	}
	for i := range r.Vars {
		if r.Vars[i] != o.Vars[i] {
			return fmt.Errorf("span: union: relations not union compatible")
		}
	}
	for _, t := range o.Tuples {
		r.Add(t)
	}
	return nil
}

// ShiftAll returns a copy of r with every tuple shifted by the span by.
func (r *Relation) ShiftAll(by Span) *Relation {
	out := NewRelation(r.Vars...)
	for _, t := range r.Tuples {
		out.Tuples = append(out.Tuples, t.Shift(by))
	}
	return out
}

func (r *Relation) String() string {
	r.Sort()
	var b strings.Builder
	b.WriteString("{" + strings.Join(r.Vars, ",") + "}: ")
	for i, t := range r.Tuples {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(t.String())
	}
	return b.String()
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
