// Package reltest holds the comparison the differential tests of
// internal/vsa, internal/parallel and internal/engine share: three
// evaluations of one query held to each other, two of them routes through
// the optimized code and the third the reference semantics.
package reltest

import (
	"fmt"
	"strings"

	"repro/internal/span"
)

// ThreeWayDiff compares two optimized evaluations of one query — named,
// since every caller pairs different routes — with each other and with
// the reference (EvalReference, the map-based simulation that shares no
// code with either). The optimized routes usually share a scan, so only
// the reference legs tie them to the semantics. It returns "" when all
// three agree, else one line per differing pair with the tuples only in
// each side.
func ThreeWayDiff(an string, a *span.Relation, bn string, b *span.Relation, reference *span.Relation) string {
	var out strings.Builder
	pair := func(xn string, x *span.Relation, yn string, y *span.Relation) {
		if !x.Equal(y) {
			fmt.Fprintf(&out, "%s ≠ %s: only %s %v, only %s %v\n", xn, yn, xn, onlyIn(x, y), yn, onlyIn(y, x))
		}
	}
	pair(an, a, bn, b)
	pair(bn, b, "reference", reference)
	pair(an, a, "reference", reference)
	return out.String()
}

// onlyIn returns the tuples of a that b lacks.
func onlyIn(a, b *span.Relation) []span.Tuple {
	var out []span.Tuple
	for _, t := range a.Tuples {
		if !b.Has(t) {
			out = append(out, t)
		}
	}
	return out
}
