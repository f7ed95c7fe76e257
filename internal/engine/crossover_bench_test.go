package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/span"
	"repro/internal/vsa"
)

// BenchmarkExtractCrossover locates the document size at which splitting
// starts to pay on the machine it runs on — the measurement behind
// breakEven and the table in DESIGN.md ("Where splitting pays"):
//
//	go test -run '^$' -bench ExtractCrossover -benchmem ./internal/engine
//
// Per size and corpus it times the routes a split-correct plan may
// take — whole (P.Eval on the calling goroutine), split per segment (Split
// + SegmentsOf + parallel.Run over the dealt segments with P_S, what
// Extract did for every document before it chose; the baseline the chunk
// grain is compared with) at one worker and at the engine's request budget, and split per
// chunk (the engine's cut finder, then P once per ChunkSize bytes, cut at
// a span end) at one worker — and the engine as shipped: Extract, which
// must track the whole route below breakEven and the chunked route from
// there on, and reader, ExtractReader over the document as a stream, whose
// chunks are its feeds.
func BenchmarkExtractCrossover(b *testing.B) {
	e := New(Config{})
	plan := reviewPlan()
	ctx := context.Background()
	splitRoute := func(doc string, workers int) *span.Relation {
		segs := parallel.SegmentsOf(doc, plan.s.Split(doc))
		rels, _ := parallel.Run(ctx, vsa.NewMulti(plan.ps), parallel.Dealt(segs), parallel.Options{Workers: workers, Batch: e.cfg.Batch})
		return rels[0]
	}
	chunkRoute := func(doc string) *span.Relation {
		f, _ := plan.s.NewCutFinder()
		chunks := parallel.SegmentsOf(doc, f.Chunks(doc, e.cfg.ChunkSize))
		rels, _ := parallel.Run(ctx, vsa.NewMulti(plan.p), parallel.Dealt(chunks), parallel.Options{Workers: 1, Batch: 1})
		return rels[0]
	}
	corpora := []struct {
		name string
		gen  func(n int) string
	}{
		{"dense", func(n int) string { return reviewDoc(1, n) }},
		{"sparse", sparseDoc},
	}
	for _, c := range corpora {
		for _, kib := range []int{1, 2, 4, 8, 16, 32, 64, 256, 1 << 10, 2 << 10, 8 << 10} {
			doc := c.gen(kib << 10)
			routes := []struct {
				name string
				run  func() *span.Relation
			}{
				{"whole", func() *span.Relation { return plan.p.Eval(doc) }},
				{"split-w1", func() *span.Relation { return splitRoute(doc, 1) }},
				{"chunked-w1", func() *span.Relation { return chunkRoute(doc) }},
				{fmt.Sprintf("split-w%d", e.cfg.RequestWorkers), func() *span.Relation { return splitRoute(doc, e.cfg.RequestWorkers) }},
				{"extract", func() *span.Relation {
					rel, err := e.Extract(ctx, plan, doc)
					if err != nil {
						b.Fatal(err)
					}
					return rel
				}},
				{"reader", func() *span.Relation {
					rel, err := e.ExtractReader(ctx, plan, strings.NewReader(doc))
					if err != nil {
						b.Fatal(err)
					}
					return rel
				}},
			}
			want := routes[0].run().Len()
			for _, r := range routes {
				b.Run(fmt.Sprintf("%s/%dKiB/%s", c.name, kib, r.name), func(b *testing.B) {
					b.SetBytes(int64(len(doc)))
					b.ReportAllocs()
					for b.Loop() {
						if got := r.run().Len(); got != want {
							b.Fatalf("%d tuples, the whole route found %d", got, want)
						}
					}
				})
			}
		}
	}
}
