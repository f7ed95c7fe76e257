package parallel

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/library"
	"repro/internal/regexformula"
	"repro/internal/vsa"
)

type fuzzPair struct {
	name string
	p    *vsa.Automaton
	s    *core.Splitter
	// remap optionally projects fuzz documents onto the alphabet over
	// which the pair's split-correctness was proved: the token-run pair is
	// split-correct over {a,b} only (a byte outside [ab] kills the whole-
	// document match but not a per-segment match).
	remap func(string) string
}

func toAB(doc string) string {
	b := []byte(doc)
	for i := range b {
		if b[i]%2 == 0 {
			b[i] = 'a'
		} else {
			b[i] = 'b'
		}
	}
	return string(b)
}

// fuzzPairs holds (spanner, splitter) pairs whose split-correctness is
// proved by the decision procedures in the library and core test suites,
// so a run over the splitter's segments must agree with direct evaluation on
// EVERY document — the fuzz target asserts exactly that equality.
var fuzzPairs = sync.OnceValue(func() []fuzzPair {
	token, err := regexformula.MustCompile(
		"(y{aaaa})(b[ab]*)?|[ab]*b(y{aaaa})(b[ab]*)?").Determinize(0)
	if err != nil {
		panic(err)
	}
	blocks := core.MustSplitter(regexformula.MustCompile(
		"(x{[^b]*})(b[^b]*)*|[^b]*(b[^b]*)*b(x{[^b]*})(b[^b]*)*"))
	return []fuzzPair{
		{"sentiment/sentences", library.NegativeSentiment(), library.Sentences(), nil},
		{"token-runs/blocks", token, blocks, toAB},
	}
})

// FuzzSplitEvalVsSequential feeds arbitrary documents through the
// split-then-distribute pipeline on known split-correct (P, S) pairs and
// asserts the shifted union over segments equals direct evaluation — the
// paper's defining equation P = P ∘ S, checked end to end through the
// evaluation core, the splitter, and the split executor, on both
// both sources of Run: dealt (several worker counts and grains) and fed
// (the channel-fed streaming path).
func FuzzSplitEvalVsSequential(f *testing.F) {
	f.Add("bad coffee. nice tea! aaaa b aaaa")
	f.Add("")
	f.Add("aaaabaaaa")
	f.Add("very bad service? bad bad.\nbadly aaaa")
	f.Fuzz(func(t *testing.T, doc string) {
		if len(doc) > 1<<12 {
			doc = doc[:1<<12]
		}
		for _, pair := range fuzzPairs() {
			d := doc
			if pair.remap != nil {
				d = pair.remap(d)
			}
			segs := SegmentsOf(d, pair.s.Split(d))
			want := pair.p.Eval(d)
			want.Dedupe()
			// Dealt-slice path: worker counts and grains chosen so single
			// worker, per-segment chunks and multi-segment chunks (shared
			// among several workers) all agree.
			for _, opts := range []Options{{Workers: 1}, {Workers: 3, Batch: 1}, {Workers: 4, Batch: 3}} {
				got, err := runOne(context.Background(), pair.p, Dealt(segs), opts)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s (workers=%d batch=%d): split evaluation differs on %q\nsplit: %v\nseq:   %v",
						pair.name, opts.Workers, opts.Batch, d, got, want)
				}
			}
			// Streaming path: uneven batches pulled one at a time, and
			// one batch of every segment, evaluated as one chunk.
			for _, whole := range []bool{false, true} {
				batches := [][]Segment{segs}
				if !whole {
					batches = nil
					for lo := 0; lo < len(segs); {
						hi := lo + 1 + lo%3
						if hi > len(segs) {
							hi = len(segs)
						}
						batches = append(batches, segs[lo:hi])
						lo = hi
					}
				}
				got, err := runOne(context.Background(), pair.p, pulledFrom(batches...), Options{Workers: 3})
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s (streamed, whole=%v): split evaluation differs on %q\nsplit: %v\nseq:   %v",
						pair.name, whole, d, got, want)
				}
			}
		}
	})
}
