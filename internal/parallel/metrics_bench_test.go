package parallel

import (
	"context"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/library"
	"repro/internal/vsa"
)

// The benchmarks below are the instrumentation-overhead check: the
// identical split evaluation without a record (nil, the library
// default) and with one (the engine's configuration), dealt up front and
// streamed. Run them interleaved (-count N) and compare — the acceptance
// bar for the observability layer is ≤ 2% between Nil and Live.

// benchSetup prepares the review corpus, sentence-split, and points the
// benchmark's MB/s and allocs/op at it.
func benchSetup(b *testing.B) (*vsa.Automaton, []Segment) {
	p := library.NegativeSentiment()
	p.Prepare()
	doc := strings.Join(corpus.Reviews(1, 4096), "\n")
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	return p, SegmentsOf(doc, library.FastSentenceSplit(doc))
}

func benchSplitEval(b *testing.B, m *Record) {
	p, segs := benchSetup(b)
	opts := Options{Workers: 4, Record: m}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runOne(context.Background(), p, Dealt(segs), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSplitEvalMetricsNil(b *testing.B)  { benchSplitEval(b, nil) }
func BenchmarkSplitEvalMetricsLive(b *testing.B) { benchSplitEval(b, &Record{}) }

// benchSplitEvalStreamed is the streamed twin: the same segments arrive
// on a channel in batches of up to 64 KiB of text, each evaluated as one
// chunk. The per-op allocation count is what the path costs beyond the
// evaluation.
func benchSplitEvalStreamed(b *testing.B, m *Record) {
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
	opts := Options{Workers: 4, Record: m}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batches := make(chan []Segment, opts.Workers)
		go func() {
			defer close(batches)
			for _, f := range feeds {
				batches <- f
			}
		}()
		if _, err := runOne(context.Background(), p, Fed(batches), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSplitEvalStreamedMetricsNil(b *testing.B)  { benchSplitEvalStreamed(b, nil) }
func BenchmarkSplitEvalStreamedMetricsLive(b *testing.B) { benchSplitEvalStreamed(b, &Record{}) }
