package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/regexformula"
)

// kthFromEnd is (a|b)*a(a|b)^n as a formula fragment: n+2 NFA states,
// 2^(n+1) subset states — the textbook determinization blow-up.
func kthFromEnd(n int) string { return "[ab]*a" + strings.Repeat("[ab]", n) }

// TestHostileFormulasStayInBudget plans formulas whose subset
// constructions are exponential, as the spanner, as the split-spanner and
// as the splitter, under a small StateLimit. The contract (Config.
// StateLimit): the budget, not the input, bounds the work — the plan
// comes back sequential with the undecided procedure named in the
// verdict note, nothing panics, and it takes milliseconds, not 2^19
// subsets. The plan must then still evaluate correctly.
func TestHostileFormulasStayInBudget(t *testing.T) {
	blowup := kthFromEnd(18)
	cases := []struct {
		name string
		req  Request
		note string
		doc  string
		want int // tuples
	}{
		{
			name: "spanner blows up under self-splittability",
			// P = P ∘ S holds for the whole-document splitter, so the
			// equivalence test has no early counterexample to stop at.
			req:  Request{Spanner: blowup + "(y{[ab]})", Splitter: "x{.*}"},
			note: "self-splittability undecided",
			doc:  "ba" + strings.Repeat("b", 18) + "a",
			want: 1,
		},
		{
			name: "split-spanner blows up under split-correctness",
			req:  Request{Spanner: blowup + "(y{[ab]})", SplitSpanner: blowup + "(y{[ab]})", Splitter: "x{.*}"},
			note: "split-correctness undecided",
			doc:  "a" + strings.Repeat("a", 18) + "b",
			want: 1,
		},
		{
			name: "splitter blows up under locality",
			// Disjoint (the first c is unique) and committed (the span
			// runs to the end), so L1 passes and the frontier subset
			// construction over the prefix is what hits the budget.
			req:  Request{Spanner: ".*(y{c}).*", Splitter: blowup + "c(x{.*})"},
			note: "locality undecided",
			doc:  "a" + strings.Repeat("b", 18) + "cc",
			want: 2,
		},
	}
	e := New(Config{StateLimit: 2000})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t0 := time.Now()
			plan, _, err := e.Plan(context.Background(), c.req)
			took := time.Since(t0)
			if err != nil {
				t.Fatalf("Plan: %v", err)
			}
			if took > 2*time.Second {
				t.Fatalf("Plan took %v under StateLimit 2000", took)
			}
			if plan.Strategy != StrategySequential {
				t.Fatalf("strategy = %v, want sequential (verdicts %+v)", plan.Strategy, plan.Verdicts)
			}
			if !strings.Contains(plan.Verdicts.Note, c.note) {
				t.Fatalf("note = %q, want it to name %q", plan.Verdicts.Note, c.note)
			}
			if v := plan.Verdicts; v.SelfSplittable == core.VerdictYes || v.SplitCorrect == core.VerdictYes {
				t.Fatalf("an over-budget procedure reported a proof: %+v", v)
			}
			rel, err := e.Extract(context.Background(), plan, c.doc)
			if err != nil {
				t.Fatal(err)
			}
			if want := regexformula.MustCompile(c.req.Spanner).Eval(c.doc); !rel.Equal(want) || len(rel.Tuples) != c.want {
				t.Fatalf("Extract = %v, want %v (%d tuples)", rel, want, c.want)
			}
		})
	}
}

// TestCompileTimeCoversWarmUp pins that Plan.CompileTime is stamped after
// the evaluation caches are warmed: what a cache hit amortizes — and what
// the daemon reports as plan_compile_ms — includes Prepare of P, P_S and
// S. The time compilePlan spends outside the stamped interval must be
// (almost) nothing; were the stamp taken before warm-up, that gap would
// be the whole warm-up, i.e. about one Prepare of fresh copies of the
// same automata. Minima over a few rounds keep scheduler noise out.
func TestCompileTimeCoversWarmUp(t *testing.T) {
	const spanner = `(.*[ .!?\n])?bad (y{[a-z]+})(([^a-z].*)?|)`
	minOf := func(rounds int, f func() time.Duration) time.Duration {
		best := f()
		for i := 1; i < rounds; i++ {
			best = min(best, f())
		}
		return best
	}
	prepare := minOf(10, func() time.Duration {
		p, s := regexformula.MustCompile(spanner), regexformula.MustCompile(sentenceFormula)
		t0 := time.Now()
		p.Prepare()
		s.Prepare()
		return time.Since(t0)
	})
	for name, compile := range map[string]func() (*Plan, error){
		"single": func() (*Plan, error) {
			return compilePlan(Request{Spanner: spanner, Splitter: sentenceFormula}, 0, newPlanCache(cacheConfig{}))
		},
		"batch": func() (*Plan, error) {
			return compileBatchPlan(BatchRequest{Spanners: []string{spanner, emailFormula}})
		},
	} {
		unstamped := minOf(10, func() time.Duration {
			t0 := time.Now()
			plan, err := compile()
			wall := time.Since(t0)
			if err != nil {
				t.Fatal(err)
			}
			if plan.CompileTime <= 0 || plan.CompileTime > wall {
				t.Fatalf("%s: CompileTime = %v outside (0, wall %v]", name, plan.CompileTime, wall)
			}
			if name == "single" && (plan.DecideTime <= 0 || plan.DecideTime >= plan.CompileTime) {
				t.Fatalf("DecideTime = %v, want inside CompileTime %v", plan.DecideTime, plan.CompileTime)
			}
			return wall - plan.CompileTime
		})
		t.Logf("%s: compile time outside CompileTime %v; Prepare of fresh automata %v", name, unstamped, prepare)
		if unstamped >= prepare/2 {
			t.Fatalf("%s: %v of compilation is outside CompileTime — as much as warm-up costs (Prepare ≈ %v)", name, unstamped, prepare)
		}
	}
}

// TestNestedPlusIsRefusedPromptly: k nested +s double the formula tree k
// times, and compilation runs under the plan cache's single-flight, so an
// unbounded one would hold its admission token for hours. Forty of them,
// as the spanner or as the splitter, fail Plan with the parser's typed
// error within a second.
func TestNestedPlusIsRefusedPromptly(t *testing.T) {
	hostile := "y{a" + strings.Repeat("+", 40) + "}"
	for _, req := range []Request{
		{Spanner: hostile},
		{Spanner: emailFormula, Splitter: strings.Replace(hostile, "y{", "x{", 1)},
	} {
		e := New(Config{})
		t0 := time.Now()
		_, _, err := e.Plan(context.Background(), req)
		if !errors.Is(err, regexformula.ErrFormulaTooLarge) || time.Since(t0) > time.Second {
			t.Fatalf("%+v: Plan took %v and returned %v, want ErrFormulaTooLarge within a second", req, time.Since(t0), err)
		}
	}
}
