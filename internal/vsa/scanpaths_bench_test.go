package vsa_test

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/library"
	"repro/internal/regexformula"
	"repro/internal/span"
	"repro/internal/vsa"
)

// scanWords are the sixteen fused members of BenchmarkScanPaths (the
// words of bench/'s batch-fused workload): "bad" is
// library.NegativeSentiment, dense in review text; the others occur in
// the lead-ins of the same sentences.
var scanWords = []string{
	"bad", "the", "of", "and", "a", "to", "in", "is",
	"was", "he", "for", "it", "with", "as", "his", "on",
}

// scanPiece is one evaluation call of BenchmarkScanPaths: a whole
// document, or one sentence segment of it.
type scanPiece struct {
	text string
	by   span.Span
}

func scanReviewDoc(n int) string {
	for count := n / 256; ; count *= 2 {
		if doc := strings.Join(corpus.Reviews(1, count), "\n"); len(doc) >= n {
			return doc[:n]
		}
	}
}

// BenchmarkScanPaths times the one evaluation pass the way a split
// worker runs it: a vsa.MultiSession on a Multi of one member (session:
// the automaton's own scan group, what every single spanner runs) and of
// sixteen (multi-16). Inputs are a 256 KiB review document (a
// batch-fused request's), a 2 MiB match-dense review document, a 2 MiB
// sparse one, and the dense document sentence by sentence — the ~54 000
// calls per document of the split path, where per-call fixed costs are
// the whole bill. Every row checks its tuple
// count against whole-document Eval of each member (the members are
// split-correct for sentences, so the segment rows must agree too).
//
//	go test -run '^$' -bench ScanPaths -benchmem ./internal/vsa
func BenchmarkScanPaths(b *testing.B) {
	members := make([]*vsa.Automaton, len(scanWords))
	for i, w := range scanWords {
		members[i] = regexformula.MustCompile(`(.*[ .!?\n])?` + w + ` (y{[a-z]+})(([^a-z].*)?|)`)
		members[i].Prepare()
	}
	neg := members[0]
	dense := scanReviewDoc(2 << 20)
	review := scanReviewDoc(256 << 10)
	sparse := corpus.SparseSentiment(1, 2<<20, 64<<10)[:2<<20]
	whole := func(doc string) []scanPiece {
		return []scanPiece{{doc, span.Span{Start: 1, End: len(doc) + 1}}}
	}
	var segments []scanPiece
	for _, sp := range library.FastSentenceSplit(dense) {
		segments = append(segments, scanPiece{sp.In(dense), sp})
	}
	inputs := []struct {
		name   string
		doc    string
		pieces []scanPiece
	}{
		{"review-256k", review, whole(review)},
		{"dense", dense, whole(dense)},
		{"sparse", sparse, whole(sparse)},
		{"segments", dense, segments},
	}
	for _, in := range inputs {
		want1 := neg.Eval(in.doc).Len()
		want16 := 0
		for _, a := range members {
			want16 += a.Eval(in.doc).Len()
		}
		if want1 == 0 {
			b.Fatalf("%s: no NegativeSentiment match in the corpus", in.name)
		}
		row := func(name string, want int, run func() int) {
			b.Run(in.name+"/"+name, func(b *testing.B) {
				b.SetBytes(int64(len(in.doc)))
				b.ReportAllocs()
				for b.Loop() {
					if got := run(); got != want {
						b.Fatalf("%d tuples, whole-document Eval found %d", got, want)
					}
				}
			})
		}
		multi := func(m *vsa.Multi) func() int {
			m.Prepare()
			return func() int {
				rels := make([]*span.Relation, m.Len())
				relOf := func(i int) *span.Relation {
					if rels[i] == nil {
						rels[i] = span.NewRelation(m.Member(i).Vars...)
					}
					return rels[i]
				}
				var arena span.TupleArena
				s := m.NewSession(nil)
				for _, p := range in.pieces {
					s.EvalAppend(p.text, p.by, relOf, &arena)
				}
				s.Close()
				n := 0
				for _, r := range rels {
					if r != nil {
						n += r.Len()
					}
				}
				return n
			}
		}
		row("session", want1, multi(vsa.NewMulti(neg)))
		row("multi-16", want16, multi(vsa.NewMulti(members...)))
	}
}
