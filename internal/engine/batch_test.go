package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/reltest"
	"repro/internal/span"
)

const (
	abFormula = `.*(x{ab}).*|(x{ab}).*`
	cdFormula = `.*(x{cd}).*|(x{cd}).*`
	// sentimentFormula is library.NegativeSentiment's formula.
	sentimentFormula = `(.*[ .!?\n])?bad (y{[a-z]+})(([^a-z].*)?|)`
)

func mustPlanBatch(t *testing.T, e *Engine, req BatchRequest) *Plan {
	t.Helper()
	plan, _, err := e.PlanBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestExtractBatchMatchesSingleExtract(t *testing.T) {
	e := newTestEngine()
	formulas := []string{emailFormula, abFormula, cdFormula}
	plan := mustPlanBatch(t, e, BatchRequest{Spanners: formulas})
	doc := "ab cd " + emailDoc + " ab"
	results, err := e.ExtractBatch(context.Background(), plan, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(formulas) {
		t.Fatalf("got %d results, want %d", len(results), len(formulas))
	}
	for i, f := range formulas {
		if results[i].Err != nil {
			t.Fatalf("slot %d: unexpected error %v", i, results[i].Err)
		}
		single := mustPlan(t, e, Request{Spanner: f})
		want, err := e.Extract(context.Background(), single, doc)
		if err != nil {
			t.Fatal(err)
		}
		if !results[i].Rel.Equal(want) {
			t.Fatalf("slot %d (%s): batch %v != single %v", i, f, results[i].Rel, want)
		}
		if results[i].Rel.Len() == 0 {
			t.Fatalf("slot %d: expected matches on %q", i, doc)
		}
	}
}

func TestExtractBatchPerQueryErrors(t *testing.T) {
	e := newTestEngine()
	plan := mustPlanBatch(t, e, BatchRequest{Spanners: []string{abFormula, "(x{unclosed", ""}})
	if n := len(plan.slot); n != 3 {
		t.Fatalf("%d slots, want 3", n)
	}
	if plan.BatchErr(0) != nil {
		t.Fatalf("slot 0 should compile, got %v", plan.BatchErr(0))
	}
	if plan.BatchErr(1) == nil || plan.BatchErr(2) == nil {
		t.Fatalf("slots 1 and 2 should carry compile errors, got %v / %v", plan.BatchErr(1), plan.BatchErr(2))
	}
	results, err := e.ExtractBatch(context.Background(), plan, "ab")
	if err != nil {
		t.Fatalf("one bad formula must not fail the batch: %v", err)
	}
	if results[0].Err != nil || results[0].Rel == nil || results[0].Rel.Len() != 1 {
		t.Fatalf("slot 0 = %+v, want one match and no error", results[0])
	}
	if results[1].Err == nil || results[1].Rel != nil {
		t.Fatalf("slot 1 = %+v, want a compile error and no relation", results[1])
	}
	if results[2].Err == nil {
		t.Fatalf("slot 2 = %+v, want a compile error", results[2])
	}
	if vars := plan.BatchVars(1); vars != nil {
		t.Fatalf("BatchVars of a failed slot = %v, want nil", vars)
	}
}

func TestExtractBatchAllFormulasBad(t *testing.T) {
	e := newTestEngine()
	plan := mustPlanBatch(t, e, BatchRequest{Spanners: []string{"(x{a", ""}})
	results, err := e.ExtractBatch(context.Background(), plan, "whatever")
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err == nil || r.Rel != nil {
			t.Fatalf("slot %d = %+v, want error only", i, r)
		}
	}
}

func TestExtractBatchDuplicateFormulasShareOneMember(t *testing.T) {
	e := newTestEngine()
	plan := mustPlanBatch(t, e, BatchRequest{Spanners: []string{abFormula, abFormula, cdFormula}})
	if n := len(plan.members); n != 2 {
		t.Fatalf("distinct members = %d, want 2 (duplicates deduplicated)", n)
	}
	results, err := e.ExtractBatch(context.Background(), plan, "ab cd")
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Rel != results[1].Rel {
		t.Fatalf("duplicate slots should share one relation")
	}
	if !results[0].Rel.Equal(results[1].Rel) || results[0].Rel.Len() != 1 {
		t.Fatalf("duplicate slots disagree: %v vs %v", results[0].Rel, results[1].Rel)
	}
}

func TestPlanBatchEmpty(t *testing.T) {
	e := newTestEngine()
	if _, _, err := e.PlanBatch(context.Background(), BatchRequest{}); err == nil {
		t.Fatal("empty batch should fail to plan")
	}
}

// TestOneMemberBatchIsTheSingleQuery pins the one request path: a
// single-query plan is the one-member batch. For the batch formulas and
// for executionCases' spanners as sequential plans, slot 0 of both
// ExtractBatch(PlanBatch([X])) and ExtractBatch(Plan(X)) equals
// Extract(Plan(X)) and EvalReference, on an inline document and on
// streams with and without a declared length.
func TestOneMemberBatchIsTheSingleQuery(t *testing.T) {
	e := New(Config{Workers: 2, ReadTimeout: time.Minute})
	ctx := context.Background()
	cases := executionCases(t)
	for _, f := range []string{emailFormula, abFormula, cdFormula, sentimentFormula} {
		single := mustPlan(t, e, Request{Spanner: f})
		batch := mustPlanBatch(t, e, BatchRequest{Spanners: []string{f}})
		for i, c := range cases {
			doc := c.doc(uint64(i)+1, 8<<10) + " ab cd"
			want := single.p.EvalReference(doc)
			for _, input := range []struct {
				name string
				open func() io.Reader // nil: inline
			}{
				{"inline", nil},
				{"sized", func() io.Reader { return strings.NewReader(doc) }},
				{"unsized", func() io.Reader { return unsized{strings.NewReader(doc)} }},
			} {
				extract := func(plan *Plan) ([]BatchResult, *span.Relation) {
					t.Helper()
					var results []BatchResult
					var rel *span.Relation
					var err, berr error
					if input.open == nil {
						results, berr = e.ExtractBatch(ctx, plan, doc)
						rel, err = e.Extract(ctx, plan, doc)
					} else {
						results, _, berr = e.Answer(ctx, plan, "", input.open())
						rel, err = e.ExtractReader(ctx, plan, input.open())
					}
					if err != nil || berr != nil || len(results) != 1 || results[0].Err != nil {
						t.Fatalf("%s on %s, %s: results %+v, errors %v / %v", f, c.name, input.name, results, berr, err)
					}
					return results, rel
				}
				what := fmt.Sprintf("%s on %s, %s", f, c.name, input.name)
				fused, _ := extract(batch)
				slot, rel := extract(single)
				if d := reltest.ThreeWayDiff("ExtractBatch(PlanBatch)", fused[0].Rel, "Extract(Plan)", rel, want); d != "" {
					t.Fatalf("%s:\n%s", what, d)
				}
				if d := reltest.ThreeWayDiff("ExtractBatch(Plan)", slot[0].Rel, "Extract(Plan)", rel, want); d != "" {
					t.Fatalf("%s:\n%s", what, d)
				}
			}
		}
	}
}

func TestExtractBatchDocTooLarge(t *testing.T) {
	e := New(Config{MaxDocBuffer: 8})
	plan := mustPlanBatch(t, e, BatchRequest{Spanners: []string{abFormula}})
	if _, err := e.ExtractBatch(context.Background(), plan, "0123456789"); !errors.Is(err, ErrDocTooLarge) {
		t.Fatalf("err = %v, want ErrDocTooLarge", err)
	}
}

// TestBatchKeyNeverAliasesSingleKey is the cache-key contract: a fused
// plan's key starts with "batch:" while a single plan's key starts with
// a decimal digit (the tenant length prefix), so no choice of tenant or
// formula bytes can make the two collide — including adversarial
// tenants/formulas that embed "batch:" or length prefixes themselves.
func TestBatchKeyNeverAliasesSingleKey(t *testing.T) {
	cases := []struct {
		single Request
		batch  BatchRequest
	}{
		{Request{Spanner: abFormula}, BatchRequest{Spanners: []string{abFormula}}},
		{Request{Tenant: "batch:", Spanner: abFormula}, BatchRequest{Spanners: []string{abFormula}}},
		{Request{Spanner: "batch:0:" + abFormula}, BatchRequest{Spanners: []string{abFormula}}},
		{Request{Spanner: abFormula, Splitter: cdFormula}, BatchRequest{Spanners: []string{abFormula, cdFormula}}},
	}
	for i, c := range cases {
		sk, bk := c.single.key(), c.batch.key()
		if sk == bk {
			t.Fatalf("case %d: single key %q aliases batch key %q", i, sk, bk)
		}
		if sk[0] < '0' || sk[0] > '9' {
			t.Fatalf("case %d: single key %q must start with a digit", i, sk)
		}
		if bk[:6] != "batch:" {
			t.Fatalf("case %d: batch key %q must start with batch:", i, bk)
		}
	}
	// Two batches differing only in formula boundaries must not collide
	// (length prefixes make concatenation unambiguous).
	a := BatchRequest{Spanners: []string{"ab", "c"}}
	b := BatchRequest{Spanners: []string{"a", "bc"}}
	if a.key() == b.key() {
		t.Fatalf("batch keys collide across formula boundaries: %q", a.key())
	}
}

// TestBatchPlanCostCountsAllMembers is the eviction-accounting contract:
// a fused plan's modeled byte cost must include every distinct member
// automaton, so registering N formulas as one batch cannot squeeze under
// a byte budget that N singleton plans would blow.
func TestBatchPlanCostCountsAllMembers(t *testing.T) {
	batch, err := compileBatchPlan(BatchRequest{Spanners: []string{emailFormula, abFormula, cdFormula}})
	if err != nil {
		t.Fatal(err)
	}
	var singles int64
	for _, f := range []string{emailFormula, abFormula, cdFormula} {
		p, err := compilePlan(Request{Spanner: f}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		singles += p.cost()
	}
	// Each single plan pays the fixed per-plan baseline; the batch pays
	// it once. Everything else — per-state, per-edge, per-formula-byte —
	// must match, so the batch cost is within 3 baselines of the sum.
	if got, want := batch.cost(), singles-2*512; got != want {
		t.Fatalf("batch cost = %d, want %d (sum of singles %d minus two baselines)", got, want, singles)
	}

	// And the cache actually uses it: with a byte budget that holds the
	// batch plan but not much else, inserting the batch evicts cached
	// singles (cost-aware eviction, not entry counting).
	e := New(Config{PlanCache: 64, PlanCacheBytes: batch.cost() + 600})
	mustPlan(t, e, Request{Spanner: abFormula})
	mustPlan(t, e, Request{Spanner: cdFormula})
	mustPlanBatch(t, e, BatchRequest{Spanners: []string{emailFormula, abFormula, cdFormula}})
	st := e.cache.stats()
	if st.Evictions == 0 {
		t.Fatalf("expected byte-budget evictions when the fused plan landed, got stats %+v", st)
	}
	if st.Bytes > e.cfg.PlanCacheBytes {
		t.Fatalf("cache bytes %d exceed budget %d", st.Bytes, e.cfg.PlanCacheBytes)
	}
}

// TestBatchAndSingleHammerSharedCache runs concurrent ExtractBatch and
// single-plan Extract traffic through one engine (and thus one plan
// cache) under -race: fused and singleton plans for the same formulas
// must coexist without aliasing, and results must stay byte-identical
// to isolated evaluation throughout cache churn.
func TestBatchAndSingleHammerSharedCache(t *testing.T) {
	e := New(Config{Workers: 4, PlanCache: 4, PlanCacheBytes: 1 << 20})
	doc := "ab cd " + emailDoc
	formulas := []string{emailFormula, abFormula, cdFormula}

	// Reference results from a pristine engine.
	ref := newTestEngine()
	want := make(map[string]int, len(formulas))
	for _, f := range formulas {
		rel, err := ref.Extract(context.Background(), mustPlan(t, ref, Request{Spanner: f}), doc)
		if err != nil {
			t.Fatal(err)
		}
		want[f] = rel.Len()
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 25; it++ {
				if (g+it)%2 == 0 {
					plan, _, err := e.PlanBatch(context.Background(), BatchRequest{Spanners: formulas})
					if err != nil {
						errc <- err
						return
					}
					results, err := e.ExtractBatch(context.Background(), plan, doc)
					if err != nil {
						errc <- err
						return
					}
					for i, f := range formulas {
						if results[i].Err != nil || results[i].Rel.Len() != want[f] {
							errc <- fmt.Errorf("batch slot %d (%s): got %+v, want %d tuples", i, f, results[i], want[f])
							return
						}
					}
				} else {
					f := formulas[(g+it)%len(formulas)]
					plan, _, err := e.Plan(context.Background(), Request{Spanner: f})
					if err != nil {
						errc <- err
						return
					}
					rel, err := e.Extract(context.Background(), plan, doc)
					if err != nil {
						errc <- err
						return
					}
					if rel.Len() != want[f] {
						errc <- fmt.Errorf("single %s: got %d tuples, want %d", f, rel.Len(), want[f])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if st := e.cache.stats(); st.Size > st.Cap {
		t.Fatalf("cache overflowed: %+v", st)
	}
}

func TestPlanBatchCacheHit(t *testing.T) {
	e := newTestEngine()
	req := BatchRequest{Spanners: []string{abFormula, cdFormula}}
	p1, hit1, err := e.PlanBatch(context.Background(), req)
	if err != nil || hit1 {
		t.Fatalf("first plan: hit=%v err=%v", hit1, err)
	}
	p2, hit2, err := e.PlanBatch(context.Background(), req)
	if err != nil || !hit2 || p1 != p2 {
		t.Fatalf("second plan: hit=%v same=%v err=%v", hit2, p1 == p2, err)
	}
}
