package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/engine"
)

// The benchmark's formulas: the negative-sentiment spanner and the
// sentence splitter of the small-hot shape, and the sixteen-word fused
// batch of the batch-fused shape (bench/workloads.go sends the same).
const sentimentFormula = `(.*[ .!?\n])?bad (y{[a-z]+})(([^a-z].*)?|)`

var batchWords = []string{"bad", "the", "of", "and", "a", "to", "in", "is", "was", "he", "for", "it", "with", "as", "his", "on"}

// reviewsDoc is a '\n'-joined review corpus of exactly n bytes: every
// line break is an escape in the JSON body.
func reviewsDoc(n int) string {
	for count := n/64 + 8; ; count *= 2 {
		if doc := strings.Join(corpus.Reviews(1, count), "\n"); len(doc) >= n {
			return doc[:n]
		}
	}
}

// BenchmarkHandler times one inline-JSON request through the daemon's
// handler (decode, plan-cache hit, evaluation, encode; no admission
// limiter) against its floor, Engine.Answer on the same plan and document:
// handler/engine is what the daemon adds. small-hot is a 2 KiB document on
// a cached sentence-split plan, batch-fused sixteen spanners over 256 KiB.
func BenchmarkHandler(b *testing.B) {
	batch := make([]string, len(batchWords))
	for i, w := range batchWords {
		batch[i] = `(.*[ .!?\n])?` + w + ` (y{[a-z]+})(([^a-z].*)?|)`
	}
	for _, c := range []struct {
		name, path string
		body       map[string]any
		req        engine.BatchRequest
	}{
		{"small-hot", "/v1/extract", map[string]any{"spanner": sentimentFormula, "splitter": sentenceFormula, "doc": reviewsDoc(2 << 10)}, engine.BatchRequest{}},
		{"batch-fused", "/v1/extract-batch", map[string]any{"spanners": batch, "doc": reviewsDoc(256 << 10)}, engine.BatchRequest{Spanners: batch}},
	} {
		eng := engine.New(engine.Config{Workers: 1})
		srv := newServer(eng)
		body, _ := json.Marshal(c.body)
		post := func() *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			r := httptest.NewRequest("POST", c.path, strings.NewReader(string(body)))
			r.Header.Set("Content-Type", "application/json")
			srv.ServeHTTP(w, r)
			return w
		}
		if w := post(); w.Code != http.StatusOK { // warms the plan cache
			b.Fatalf("%s: status %d: %.200s", c.name, w.Code, w.Body)
		}
		ctx := context.Background()
		var plan *engine.Plan
		var err error
		if c.req.Spanners != nil {
			plan, _, err = eng.PlanBatch(ctx, c.req)
		} else {
			plan, _, err = eng.Plan(ctx, engine.Request{Spanner: sentimentFormula, Splitter: sentenceFormula})
		}
		if err != nil {
			b.Fatal(err)
		}
		doc := c.body["doc"].(string)
		b.Run(c.name+"/handler", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				post()
			}
		})
		b.Run(c.name+"/engine", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := eng.Answer(ctx, plan, doc, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
