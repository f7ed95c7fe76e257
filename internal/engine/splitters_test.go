package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/internal/core"
	"repro/internal/regexformula"
)

// churnSpanner is the sentiment spanner with the capture renamed: a new
// plan over the same splitter, as the plan-churn traffic sends.
func churnSpanner(i int) string {
	return fmt.Sprintf(`(.*[ .!?\n])?bad (v%d{[a-z]+})(([^a-z].*)?|)`, i)
}

// waiting is the number of calls awaiting key's build in flight.
func (t *splitterTable) waiting(key string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f := t.inflight[key]; f != nil {
		return f.waiters
	}
	return 0
}

// live counts the table's artifacts that are still reachable.
func (t *splitterTable) live() (live, keys int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, wp := range t.built {
		if wp.Value() != nil {
			live++
		}
	}
	return live, len(t.built) + len(t.inflight)
}

// TestPlansShareTheirSplitter pins the artifact's key: plans of one tenant
// over one splitter formula share one *core.Splitter whatever their
// spanners, across a garbage collection, and another tenant gets its own.
// The second plan is a plan miss all the same.
func TestPlansShareTheirSplitter(t *testing.T) {
	e := New(Config{})
	plan := func(tenant string, i int) *Plan {
		t.Helper()
		p, hit, err := e.Plan(context.Background(), Request{Tenant: tenant, Spanner: churnSpanner(i), Splitter: sentenceFormula})
		if err != nil || hit {
			t.Fatalf("Plan: hit=%v err=%v, want a cold plan", hit, err)
		}
		return p
	}
	a := plan("", 1)
	runtime.GC() // a's plan, alone, keeps the artifact alive
	b, other := plan("", 2), plan("acme", 3)
	if a.SplitterOf() != b.SplitterOf() {
		t.Fatal("two plans over one splitter hold different splitters")
	}
	if a.SplitterOf() == other.SplitterOf() {
		t.Fatal("two tenants share a splitter")
	}
	if st := e.Stats().PlanCache; st.SplitterHits != 1 || st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("cache stats %+v, want 1 splitter hit over 3 plan misses", st)
	}
	if a.Strategy != StrategySplit || b.Verdicts != a.Verdicts {
		t.Fatalf("shared plan: verdicts %+v, first plan %+v (%v)", b.Verdicts, a.Verdicts, a.Strategy)
	}
}

// TestSharedSplitterVerdictsMatchFreshBuild holds a plan decided on a
// shared splitter artifact — the second plan on it — to a plan decided on
// an artifact of its own: same verdicts, notes and strategy, on every
// executionCases pair and on a splitter whose locality closure exceeds
// the state budget, whose note must reappear on the plan that shares it.
func TestSharedSplitterVerdictsMatchFreshBuild(t *testing.T) {
	for _, c := range executionCases(t) {
		var tab splitterTable
		sAuto := c.plan.s.Automaton()
		decided := func() *Plan {
			art, _, err := tab.get(c.name, func() (*splitterArtifact, error) { return newSplitterArtifact(sAuto, 0) })
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			p := &Plan{p: c.plan.p}
			if err := p.decideSplit(art, c.plan.ps, 0); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return p
		}
		first, second := decided(), decided()
		if first.SplitterOf() != second.SplitterOf() || tab.hits.Load() != 1 {
			t.Fatalf("%s: the second plan did not share the first one's splitter", c.name)
		}
		if second.Verdicts != c.plan.Verdicts || second.Strategy != c.plan.Strategy {
			t.Fatalf("%s: shared verdicts %+v (%v), fresh %+v (%v)", c.name, second.Verdicts, second.Strategy, c.plan.Verdicts, c.plan.Strategy)
		}
	}

	const limit = 2000
	e := New(Config{StateLimit: limit})
	splitter := kthFromEnd(18) + "c(x{.*})"
	for i, spanner := range []string{".*(y{c}).*", ".*(z{c}).*"} {
		req := Request{Spanner: spanner, Splitter: splitter}
		plan, _, err := e.Plan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := compilePlan(req, limit, new(splitterTable))
		if err != nil {
			t.Fatal(err)
		}
		if plan.Verdicts != fresh.Verdicts || plan.Strategy != fresh.Strategy || !strings.Contains(plan.Verdicts.Note, "locality undecided") {
			t.Fatalf("plan %d: verdicts %+v (%v), fresh %+v (%v)", i, plan.Verdicts, plan.Strategy, fresh.Verdicts, fresh.Strategy)
		}
	}
	if hits := e.Stats().PlanCache.SplitterHits; hits != 1 {
		t.Fatalf("splitter hits = %d, want 1", hits)
	}
}

// TestSplitterTableBoundedByPlanCache plans N distinct splitters through
// a plan cache of two: once the evicted plans are collected, at most two
// artifacts are alive, and their cleanups drop the other keys.
func TestSplitterTableBoundedByPlanCache(t *testing.T) {
	const capacity, n = 2, 12
	e := New(Config{PlanCache: capacity})
	for i := range n {
		req := Request{Spanner: ".*(y{a}).*", Splitter: "x{.*}" + strings.Repeat("a", i)}
		if _, _, err := e.Plan(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	if live, _ := e.splitters.live(); live > capacity {
		t.Fatalf("%d splitter artifacts alive behind a plan cache of %d", live, capacity)
	}
	for deadline := time.Now().Add(5 * time.Second); ; runtime.GC() {
		_, keys := e.splitters.live()
		if keys <= capacity {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d splitter keys left behind a plan cache of %d", keys, capacity)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDroppedEngineIsCollected drops an engine that still caches a split
// plan: the engine, its plan cache and the plan's splitter artifact are
// garbage once unreachable. A cleanup that reaches the engine (through a
// table embedded in it) would keep all three alive for good.
func TestDroppedEngineIsCollected(t *testing.T) {
	engine := func() weak.Pointer[Engine] {
		e := New(Config{})
		if _, _, err := e.Plan(context.Background(), Request{Spanner: churnSpanner(1), Splitter: sentenceFormula}); err != nil {
			t.Fatal(err)
		}
		return weak.Make(e)
	}()
	for deadline := time.Now().Add(5 * time.Second); engine.Value() != nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a dropped engine with a cached split plan was never collected")
		}
		runtime.GC()
	}
}

// TestSplitterBuildFailureLeavesNoEntry: a splitter that fails to compile,
// or whose build panics, leaves nothing in the table — a waiter on the
// panicked build is released with an error — and the next request
// builds again. The waiter is not counted as a splitter hit: nothing was
// shared.
func TestSplitterBuildFailureLeavesNoEntry(t *testing.T) {
	var tab splitterTable
	empty := func(what string) {
		t.Helper()
		if _, keys := tab.live(); keys != 0 {
			t.Fatalf("%s: %d keys left in the splitter table", what, keys)
		}
	}

	started, release := make(chan struct{}), make(chan struct{})
	waited := make(chan error)
	go func() {
		<-started
		_, _, err := tab.get("k", func() (*splitterArtifact, error) { t.Error("a waiter built"); return nil, nil })
		waited <- err
	}()
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the build's panic", r)
			}
		}()
		tab.get("k", func() (*splitterArtifact, error) {
			close(started)
			for tab.waiting("k") != 1 {
				runtime.Gosched()
			}
			close(release)
			panic("boom")
		})
	}()
	<-release
	if err := <-waited; !errors.Is(err, errSplitterPanicked) {
		t.Fatalf("waiter on a panicked build: %v", err)
	}
	empty("panicked build")
	if hits := tab.hits.Load(); hits != 0 {
		t.Fatalf("a waiter on a panicked build counted %d splitter hits", hits)
	}

	bad := errors.New("bad splitter")
	if _, _, err := tab.get("k", func() (*splitterArtifact, error) { return nil, bad }); err != bad {
		t.Fatalf("failed build: %v", err)
	}
	empty("failed build")

	art, hit, err := tab.get("k", func() (*splitterArtifact, error) {
		return newSplitterArtifact(regexformula.MustCompile(sentenceFormula), 0)
	})
	if err != nil || hit || art == nil {
		t.Fatalf("retry: art=%v hit=%v err=%v, want a fresh build", art, hit, err)
	}

	e := New(Config{})
	for range 2 {
		if _, _, err := e.Plan(context.Background(), Request{Spanner: emailFormula, Splitter: "x{"}); err == nil {
			t.Fatal("a splitter that does not compile planned")
		}
	}
	if _, keys := e.splitters.live(); keys != 0 || e.Stats().PlanCache.SplitterHits != 0 {
		t.Fatalf("a failed splitter left %d keys and %d hits", keys, e.Stats().PlanCache.SplitterHits)
	}
}

// TestSharedSplitterChargedOnce pins the plan cache's charge for a shared
// splitter artifact: the plan that built it pays for S, a second plan of
// the same tenant over it pays only its own cost, and another tenant,
// which builds its own artifact, pays for S again. churnSpanner(1) and
// churnSpanner(2) compile to automata of one size, so the two plans
// differ by S's charge exactly.
func TestSharedSplitterChargedOnce(t *testing.T) {
	e := New(Config{})
	var s *core.Splitter
	bytes := func(tenant string, i int) int64 {
		t.Helper()
		p, hit, err := e.Plan(context.Background(), Request{Tenant: tenant, Spanner: churnSpanner(i), Splitter: sentenceFormula})
		if err != nil || hit {
			t.Fatalf("Plan: hit=%v err=%v, want a cold plan", hit, err)
		}
		s = p.SplitterOf()
		return e.Stats().PlanCache.Bytes
	}
	first := bytes("", 1)
	second := bytes("", 2) - first
	other := bytes("B", 1) - first - second
	a := s.Automaton()
	charge := int64(a.NumStates())*96 + int64(a.NumEdges())*48 // cost's per-state and per-edge rates
	if second != first-charge {
		t.Fatalf("second plan over the splitter adds %d bytes, want %d (the first plan's %d without S's %d)", second, first-charge, first, charge)
	}
	if other != first {
		t.Fatalf("another tenant's plan over the splitter adds %d bytes, want the first plan's %d", other, first)
	}
}

// TestConcurrentColdPlansBuildSplitterOnce cold-plans sixteen spanners
// over one splitter from sixteen goroutines at once: the splitter is
// built once — fifteen plans share it, in flight or built — and every
// plan holds the same one.
func TestConcurrentColdPlansBuildSplitterOnce(t *testing.T) {
	const n = 16
	e := New(Config{})
	splitters := make([]*core.Splitter, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			plan, hit, err := e.Plan(context.Background(), Request{Spanner: churnSpanner(i), Splitter: sentenceFormula})
			if err != nil || hit {
				t.Errorf("plan %d: hit=%v err=%v", i, hit, err)
				return
			}
			splitters[i] = plan.SplitterOf()
		}()
	}
	close(start)
	wg.Wait()
	if hits := e.Stats().PlanCache.SplitterHits; hits != n-1 {
		t.Fatalf("splitter hits = %d over %d cold plans: the splitter was built %d times", hits, n, n-int(hits))
	}
	for i, s := range splitters {
		if s == nil || s != splitters[0] {
			t.Fatalf("plan %d holds splitter %p, plan 0 %p", i, s, splitters[0])
		}
	}
}
