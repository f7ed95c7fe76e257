package parallel

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/regexformula"
	"repro/internal/reltest"
	"repro/internal/span"
	"repro/internal/vsa"
)

// multiFuzzFormula mirrors core's scanFuzzFormula: the same seven
// formula families (sentence blocks, token runs, first/later blocks,
// suffix-conditioned closes, empty spans, fully random unary formulas)
// from which the fuzzer assembles multi-query sets. Replicated here
// because core's generator is unexported and parallel must not depend on
// core's test internals.
func multiFuzzFormula(mode uint8, c1, c2 byte, seed int64) string {
	seps := []string{".", ";", "!", "\\n", " ", "a", "b"}
	s1, s2 := seps[int(c1)%len(seps)], seps[int(c2)%len(seps)]
	sep := s1
	if s1 != s2 {
		sep = s1 + s2
	}
	blockStar := "(x{[^" + sep + "]*})"
	blockPlus := "(x{[^" + sep + "]+})"
	switch mode % 7 {
	case 0:
		return blockStar + "([" + sep + "][^" + sep + "]*)*|" +
			"[^" + sep + "]*([" + sep + "][^" + sep + "]*)*[" + sep + "]" + blockStar + "([" + sep + "][^" + sep + "]*)*"
	case 1:
		return blockPlus + "([" + sep + "].*)?|.*[" + sep + "]" + blockPlus + "([" + sep + "].*)?"
	case 2:
		return blockStar + "([" + sep + "][^" + sep + "]*)*"
	case 3:
		return "[^" + sep + "]*[" + sep + "]([^" + sep + "]*[" + sep + "])*" + blockStar + "([" + sep + "][^" + sep + "]*)*"
	case 4:
		b := "[^" + sep + "!]"
		w := "(x{" + b + "*})"
		return w + "([" + sep + "]" + b + "*)*!|" + b + "*([" + sep + "]" + b + "*)*[" + sep + "]" + w + "([" + sep + "]" + b + "*)*!"
	case 5:
		return "[^" + sep + "]*(x{})[" + sep + "].*|[^" + sep + "]*(x{})"
	default:
		return randomUnaryFormula(rand.New(rand.NewSource(seed)), "x", 2)
	}
}

// randomUnaryFormula mirrors core's random formula generator (see the
// comment on multiFuzzFormula).
func randomUnaryFormula(rng *rand.Rand, varName string, depth int) string {
	var piece func(d int, allowVar bool) string
	piece = func(d int, allowVar bool) string {
		if d == 0 {
			return string(rune('a' + rng.Intn(2)))
		}
		switch rng.Intn(6) {
		case 0:
			return piece(d-1, allowVar) + piece(d-1, false)
		case 1:
			return piece(d-1, false) + piece(d-1, allowVar)
		case 2:
			return "(" + piece(d-1, false) + ")*"
		case 3:
			return "(" + piece(d-1, false) + "|" + piece(d-1, false) + ")"
		case 4:
			if allowVar {
				return "(" + varName + "{" + piece(d-1, false) + "})"
			}
			return piece(d-1, false)
		default:
			return string(rune('a' + rng.Intn(2)))
		}
	}
	inner := piece(depth, false)
	ctx := []string{".*", "a*", "(a|b)*", ""}
	return ctx[rng.Intn(len(ctx))] + "(" + varName + "{" + inner + "})" + ctx[rng.Intn(len(ctx))]
}

// chopSegments cuts doc into n-byte segments covering it exactly — the
// collection-style workload MultiEval schedules.
func chopSegments(doc string, n int) []Segment {
	var segs []Segment
	for lo := 0; lo < len(doc); lo += n {
		hi := lo + n
		if hi > len(doc) {
			hi = len(doc)
		}
		segs = append(segs, Segment{Span: span.Span{Start: lo + 1, End: hi + 1}, Text: doc[lo:hi]})
	}
	return segs
}

// FuzzMultiVsSequential is the multi-query evaluator's correctness
// contract: a fused MultiEval over a random query set (2–8 formulas from
// the seven families) must be byte-identical per query to evaluating
// each member separately and to EvalReference — with the whole document
// as one segment against member Eval, and over chopped segments against
// the member's own SplitEval — including members with the prefilter
// disabled (the `disable` bitmap) and across worker counts.
func FuzzMultiVsSequential(f *testing.F) {
	longGap := strings.Repeat(" ", 500)
	f.Add(uint64(0x0100), byte(0), byte(1), int64(1), uint8(2), uint8(0), "one. two! three\nfour.")
	f.Add(uint64(0x030201), byte(4), byte(3), int64(2), uint8(3), uint8(1), "a b  c\nd ")
	f.Add(uint64(0x06050403020100), byte(1), byte(1), int64(3), uint8(7), uint8(0x2a), "a;b;;c")
	f.Add(uint64(0x0604), byte(0), byte(2), int64(4), uint8(2), uint8(3), "ab.cd!e")
	f.Add(uint64(0x0505), byte(2), byte(2), int64(5), uint8(2), uint8(0), "ab!cd!")
	f.Add(uint64(0x0001), byte(5), byte(6), int64(6), uint8(2), uint8(0), "abba\x00\xffb")
	f.Add(uint64(0x0200), byte(0), byte(1), int64(7), uint8(2), uint8(0), longGap+"w."+longGap)
	f.Fuzz(func(t *testing.T, modes uint64, c1, c2 byte, seed int64, n, disable uint8, doc string) {
		// Cap the document harder than the single-query fuzzes: the
		// differential evaluates it several times per member, up to 8
		// members, and some members are quadratic.
		if len(doc) > 1<<10 {
			doc = doc[:1<<10]
		}
		nq := 2 + int(n)%7 // 2–8 member queries
		members := make([]*vsa.Automaton, 0, nq)
		for i := 0; i < nq; i++ {
			src := multiFuzzFormula(uint8(modes>>(8*i)), c1+byte(i), c2, seed+int64(i))
			a, err := regexformula.Compile(src)
			if err != nil || a.Arity() != 1 {
				t.Skip()
			}
			if disable&(1<<i) != 0 {
				a.DisablePrefilter()
			}
			members = append(members, a)
		}
		m := vsa.NewMulti(members...)

		// Whole document, one segment: per query against standalone Eval
		// and the reference simulation.
		whole := []Segment{{Span: span.Span{Start: 1, End: len(doc) + 1}, Text: doc}}
		for _, w := range []int{1, 3} {
			rels := MultiEval(m, whole, w)
			for q, got := range rels {
				if d := reltest.ThreeWayDiff("fused", got, "standalone", members[q].Eval(doc), members[q].EvalReference(doc)); d != "" {
					t.Fatalf("workers=%d query %d diverged on %q:\n%s", w, q, doc, d)
				}
			}
		}

		// Chopped segments: per query against the member's own SplitEval
		// over the same segments, across worker counts, and against the
		// reference simulation of every segment, shifted into place.
		segs := chopSegments(doc, 7)
		for _, w := range []int{1, 4} {
			rels := MultiEval(m, segs, w)
			for q, got := range rels {
				ref := span.NewRelation(members[q].Vars...)
				for _, seg := range segs {
					ref.Tuples = append(ref.Tuples, members[q].EvalReference(seg.Text).ShiftAll(seg.Span).Tuples...)
				}
				if d := reltest.ThreeWayDiff("fused", got, "standalone", SplitEval(members[q], segs, 1), ref); d != "" {
					t.Fatalf("chopped workers=%d query %d diverged on %q:\n%s", w, q, doc, d)
				}
			}
		}
	})
}
