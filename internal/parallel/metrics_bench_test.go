package parallel

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/library"
	"repro/internal/vsa"
)

// The benchmarks below are the instrumentation-overhead check: the
// identical split evaluation without a record (nil, the library default)
// and with one (the engine's configuration), over a dealt source and a
// pulled one. Each iteration runs both, in alternating order, so the two
// share whatever else the machine is doing; the live/nil metric is the
// ratio of their summed times. The acceptance bar for the observability
// layer is live/nil ≤ 1.02.

// benchSetup prepares the review corpus, sentence-split, and points the
// benchmark's MB/s and allocs/op at it: an iteration evaluates it twice.
func benchSetup(b *testing.B) (*vsa.Automaton, []Segment) {
	p := library.NegativeSentiment()
	p.Prepare()
	doc := strings.Join(corpus.Reviews(1, 4096), "\n")
	b.SetBytes(2 * int64(len(doc)))
	b.ReportAllocs()
	return p, SegmentsOf(doc, library.FastSentenceSplit(doc))
}

// benchRecordOverhead runs p over a fresh src() once without a record and
// once with a fresh one per iteration, and reports live/nil.
func benchRecordOverhead(b *testing.B, p *vsa.Automaton, src func() Source) {
	var took [2]time.Duration // without a record, with one
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range 2 {
			live := (i + k) % 2
			opts := Options{Workers: 4}
			if live == 1 {
				opts.Record = &Record{}
			}
			t0 := time.Now()
			if _, err := runOne(context.Background(), p, src(), opts); err != nil {
				b.Fatal(err)
			}
			took[live] += time.Since(t0)
		}
	}
	b.ReportMetric(float64(took[1])/float64(took[0]), "live/nil")
}

func BenchmarkRecordOverheadDealt(b *testing.B) {
	p, segs := benchSetup(b)
	benchRecordOverhead(b, p, func() Source { return Dealt(segs) })
}

// BenchmarkRecordOverheadPulled is the streamed twin: the same segments
// are pulled in batches of up to 64 KiB of text, each evaluated as one
// chunk. The per-op allocation count is what the path costs beyond the
// evaluation.
func BenchmarkRecordOverheadPulled(b *testing.B) {
	p, segs := benchSetup(b)
	var feeds [][]Segment
	for lo := 0; lo < len(segs); {
		hi := lo
		for hi < len(segs) && segs[hi].Span.End-segs[lo].Span.Start <= 64<<10 {
			hi++
		}
		hi = max(hi, lo+1)
		feeds = append(feeds, segs[lo:hi])
		lo = hi
	}
	benchRecordOverhead(b, p, func() Source { return pulledFrom(feeds...) })
}
