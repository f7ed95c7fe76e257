package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/span"
)

// The response shapes as they were when encoding/json rendered the
// tuples by reflection: the byte-for-byte reference for the append-based
// encoder, which splices "tuples" (and the batch's "queries") into the
// object as its final member.
type (
	oldSpan            [2]int
	oldExtractResponse struct {
		extractResponse
		Tuples [][]oldSpan `json:"tuples"`
	}
	oldBatchQuery struct {
		Spanner string      `json:"spanner"`
		Vars    []string    `json:"vars,omitempty"`
		Count   int         `json:"count"`
		Tuples  [][]oldSpan `json:"tuples,omitempty"`
		Error   string      `json:"error,omitempty"`
	}
	oldBatchResponse struct {
		extractBatchResponse
		Queries []oldBatchQuery `json:"queries"`
	}
)

func oldTuples(rel *span.Relation) [][]oldSpan {
	out := make([][]oldSpan, len(rel.Tuples))
	for i, t := range rel.Tuples {
		out[i] = make([]oldSpan, len(t))
		for j, s := range t {
			out[i][j] = oldSpan{s.Start, s.End}
		}
	}
	return out
}

// encoded is v as the daemon's encoder writes it, newline included.
func encoded(v any) string {
	var b bytes.Buffer
	encodeJSON(&b, v)
	return b.String()
}

func TestAppendTuplesMatchesEncodingJSON(t *testing.T) {
	rels := map[string]*span.Relation{
		"empty":    span.NewRelation("y"),
		"no-vars":  {Tuples: []span.Tuple{{}}},
		"one":      {Vars: []string{"y"}, Tuples: []span.Tuple{{{Start: 1, End: 4}}, {{Start: 9, End: 12}}}},
		"two-vars": {Vars: []string{"a", "b"}, Tuples: []span.Tuple{{{Start: 1, End: 1}, {Start: 7, End: 7}}}},
		"wide":     {Vars: []string{"y"}, Tuples: []span.Tuple{{{Start: math.MaxInt32, End: math.MaxInt64}}}},
	}
	rng := rand.New(rand.NewSource(21))
	for name, nv := range map[string]int{"random-1": 1, "random-3": 3} {
		rel := span.NewRelation([]string{"a", "b", "c"}[:nv]...)
		for i := rng.Intn(2000); i > 0; i-- {
			tup := make(span.Tuple, len(rel.Vars))
			for j := range tup {
				tup[j].Start = 1 + rng.Intn(1<<uint(rng.Intn(31)))
				tup[j].End = tup[j].Start + rng.Intn(100)
			}
			rel.Tuples = append(rel.Tuples, tup)
		}
		rels[name] = rel
	}
	for name, rel := range rels {
		want, err := json.Marshal(oldTuples(rel))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendTuples(nil, rel); string(got) != string(want) {
			t.Errorf("%s: appendTuples = %.200s, encoding/json %.200s", name, got, want)
		}
		// The whole response: the head's JSON, then the spliced member. The
		// note and the variable name hold what SetEscapeHTML(false) keeps.
		head := extractResponse{
			planResponse: planResponse{Strategy: "split-parallel", Verdicts: core.PlanVerdicts{Note: "a<b & c>d"}, PlanCompileMS: 0.25},
			Ingest:       "streamed", Execution: "chunked", Vars: []string{"<y>"}, Count: rel.Len(),
		}
		got := encoded(append(appendTuples(openObject(nil, head, "tuples"), rel), '}'))
		if want := encoded(oldExtractResponse{head, oldTuples(rel)}); got != want {
			t.Errorf("%s: response = %.300s, encoding/json %.300s", name, got, want)
		}
	}
	if got := string(appendTuples(nil, rels["empty"])); got != "[]" {
		t.Errorf("empty relation renders as %s, want []", got)
	}
}

// TestAppendQueriesMatchesEncodingJSON holds the batch response, as the
// JSON body and as the multipart "results" part, to the old shape on a
// batch with every kind of slot: tuples, no tuples (the member is
// omitted), a duplicate, a formula encoding/json would escape, and one
// that does not compile.
func TestAppendQueriesMatchesEncodingJSON(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	spanners := []string{emailFormula, `.*(y{<&>}).*`, "(x{bad", `.*(z{qqq}).*`, emailFormula}
	plan, _, err := eng.PlanBatch(context.Background(), engine.BatchRequest{Spanners: spanners})
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.ExtractBatch(context.Background(), plan, testDoc+" <&> ")
	if err != nil {
		t.Fatal(err)
	}
	resp := extractBatchResponse{CacheHit: true, PlanCompileMS: 1.5}
	old := oldBatchResponse{extractBatchResponse: resp}
	wantTotal := 0
	for i, src := range spanners {
		q := oldBatchQuery{Spanner: src}
		if r := results[i]; r.Err != nil {
			q.Error = r.Err.Error()
		} else {
			q.Vars, q.Count, q.Tuples = r.Rel.Vars, r.Rel.Len(), oldTuples(r.Rel)
		}
		wantTotal += q.Count
		old.Queries = append(old.Queries, q)
	}
	if old.Queries[0].Count != 3 || old.Queries[1].Count != 1 || old.Queries[2].Error == "" || old.Queries[3].Count != 0 {
		t.Fatalf("batch results %+v: want 3 addresses, 1 escaped match, 1 compile error, 0 tuples", old.Queries)
	}
	queries, total := appendQueries(nil, plan, spanners, results)
	if got, want := encoded(queries), encoded(old.Queries); got != want || total != wantTotal {
		t.Errorf("results part = %s (total %d)\nencoding/json %s (total %d)", got, total, want, wantTotal)
	}
	body, _ := appendQueries(openObject(nil, resp, "queries"), plan, spanners, results)
	if got, want := encoded(append(body, '}')), encoded(old); got != want {
		t.Errorf("response = %s\nencoding/json %s", got, want)
	}
	// The pre-evaluation view: formulas, variables and compile errors.
	for i := range old.Queries {
		old.Queries[i].Count, old.Queries[i].Tuples = 0, nil
	}
	planPart, _ := appendQueries(nil, plan, spanners, nil)
	if got, want := encoded(planPart), encoded(old.Queries); got != want {
		t.Errorf("plan part = %s\nencoding/json %s", got, want)
	}
}
