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
)

// churnSpanner is the sentiment spanner with the capture renamed: a new
// plan over the same splitter, as the plan-churn traffic sends.
func churnSpanner(i int) string {
	return fmt.Sprintf(`(.*[ .!?\n])?bad (v%d{[a-z]+})(([^a-z].*)?|)`, i)
}

// artifacts counts the cache's splitter artifacts, built or in flight
// under an artifact key, and their summed pins.
func (c *planCache) artifacts() (n, pins int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.items {
		if strings.HasPrefix(key, "split:") {
			n++
			pins += el.Value.(*cacheEntry).pins
		}
	}
	return n, pins
}

// front is the key of the cache's most recently used entry.
func (c *planCache) front() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Front().Value.(*cacheEntry).key
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
		cache := newPlanCache(cacheConfig{cap: 4})
		sAuto := c.plan.s.Automaton()
		decided := func() (*Plan, bool) {
			v, hit, err := cache.load(context.Background(), "", c.name, false, func() (cached, error) { return newSplitterArtifact(c.name, sAuto, 0) })
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			p := &Plan{p: c.plan.p}
			if err := p.decideSplit(v.(*splitterArtifact), c.plan.ps, 0); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return p, hit
		}
		first, built := decided()
		second, shared := decided()
		if first.SplitterOf() != second.SplitterOf() || built || !shared {
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
		fresh, err := compilePlan(req, limit, newPlanCache(cacheConfig{}))
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

// TestSplitterArtifactsBoundedByPlanCache plans N distinct splitters
// through a plan cache of two entries: artifacts are entries, so the cache
// never holds more than two, and the one artifact left is pinned by the
// one plan left, which holds it.
func TestSplitterArtifactsBoundedByPlanCache(t *testing.T) {
	const capacity, n = 2, 12
	e := New(Config{PlanCache: capacity})
	var last *Plan
	for i := range n {
		req := Request{Spanner: ".*(y{a}).*", Splitter: "x{.*}" + strings.Repeat("a", i)}
		plan, _, err := e.Plan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		last = plan
		if size := e.Stats().PlanCache.Size; size > capacity {
			t.Fatalf("plan %d: %d entries in a plan cache of %d", i, size, capacity)
		}
	}
	if arts, pins := e.cache.artifacts(); arts != 1 || pins != 1 {
		t.Fatalf("%d splitter artifacts with %d pins left, want the last plan's one, pinned once", arts, pins)
	}
	if st := e.Stats().PlanCache; st.Bytes != last.cost()+last.split.cost() || st.Evictions != 2*(n-1) {
		t.Fatalf("cache stats %+v, want the last plan and its splitter charged, every other plan and splitter evicted", st)
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
// or whose build panics, leaves no entry in the cache — the builder and a
// waiter on the panicked build both get runBuild's error — and the next
// request builds again. The waiter is not counted as a splitter hit:
// nothing was shared.
func TestSplitterBuildFailureLeavesNoEntry(t *testing.T) {
	c := newPlanCache(cacheConfig{cap: 4})
	key := fmt.Sprintf("split:0:%s", sentenceFormula) // the key artifact looks up
	empty := func(what string) {
		t.Helper()
		if arts, _ := c.artifacts(); arts != 0 {
			t.Fatalf("%s: %d artifacts left in the cache", what, arts)
		}
	}

	started := make(chan struct{})
	waited := make(chan error)
	go func() {
		<-started
		_, _, err := c.artifact("", sentenceFormula, 0)
		waited <- err
	}()
	_, _, err := c.load(context.Background(), "", key, false, func() (cached, error) {
		// The filler entry goes in front of the build's; the waiter's
		// lookup moves the build's back to the front.
		c.get(context.Background(), "", "filler", func() (*Plan, error) { return &Plan{}, nil })
		close(started)
		for c.front() != key {
			runtime.Gosched()
		}
		panic("boom")
	})
	if !errors.Is(err, errBuildPanicked) {
		t.Fatalf("panicked build: %v", err)
	}
	if err := <-waited; !errors.Is(err, errBuildPanicked) {
		t.Fatalf("waiter on a panicked build: %v", err)
	}
	empty("panicked build")
	if hits := c.stats().SplitterHits; hits != 0 {
		t.Fatalf("a waiter on a panicked build counted %d splitter hits", hits)
	}

	bad := errors.New("bad splitter")
	if _, _, err := c.load(context.Background(), "", key, false, func() (cached, error) { return nil, bad }); !errors.Is(err, bad) {
		t.Fatalf("failed build: %v", err)
	}
	empty("failed build")

	art, hit, err := c.artifact("", sentenceFormula, 0)
	if err != nil || hit || art == nil {
		t.Fatalf("retry: art=%v hit=%v err=%v, want a fresh build", art, hit, err)
	}

	e := New(Config{})
	for range 2 {
		if _, _, err := e.Plan(context.Background(), Request{Spanner: emailFormula, Splitter: "x{"}); err == nil {
			t.Fatal("a splitter that does not compile planned")
		}
	}
	if st := e.Stats().PlanCache; st.Size != 0 || st.SplitterHits != 0 {
		t.Fatalf("a failed splitter left %d entries and %d hits", st.Size, st.SplitterHits)
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

// TestEvictedBuilderLeavesSplitterCharged evicts the plan that built a
// shared splitter while later plans still hold it: through a plan cache of
// two entries, plan A builds S, B shares it and C shares it again, and A
// is evicted on the way. S stays charged exactly once — Bytes is the
// cached plans' own cost plus S's — and B and C hold one *core.Splitter.
func TestEvictedBuilderLeavesSplitterCharged(t *testing.T) {
	e := New(Config{PlanCache: 2})
	plans := make([]*Plan, 3)
	for i := range plans {
		p, _, err := e.Plan(context.Background(), Request{Spanner: churnSpanner(i + 1), Splitter: sentenceFormula})
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = p
	}
	a, b, c := plans[0], plans[1], plans[2]
	if b.SplitterOf() != c.SplitterOf() {
		t.Fatal("B and C hold different splitters")
	}
	if _, cached := e.cache.items[a.Req.key()]; cached {
		t.Fatal("the building plan A is still cached")
	}
	s := a.SplitterOf().Automaton()
	want := int64(s.NumStates())*96 + int64(s.NumEdges())*48 // S's charge, once
	for _, p := range plans {
		if _, cached := e.cache.items[p.Req.key()]; cached {
			want += p.cost()
		}
	}
	if got := e.Stats().PlanCache.Bytes; got != want {
		t.Fatalf("cache bytes %d, want %d: the cached plans' own cost and S's charge once", got, want)
	}
}

// TestPinnedSplitterSkippedByEviction puts a pinned artifact at the LRU
// tail of a plan cache of three entries: the eviction passes over it, and
// over nothing else, so the plan that holds it keeps its splitter charged.
func TestPinnedSplitterSkippedByEviction(t *testing.T) {
	e := New(Config{PlanCache: 3})
	split := Request{Spanner: churnSpanner(1), Splitter: sentenceFormula}
	first, second := Request{Spanner: churnSpanner(2)}, Request{Spanner: churnSpanner(3)}
	for _, req := range []Request{split, first, split, second} { // the hit on split leaves S at the tail
		if _, _, err := e.Plan(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	for req, want := range map[Request]bool{split: true, first: false, second: true} {
		if _, cached := e.cache.items[req.key()]; cached != want {
			t.Fatalf("%q cached = %v, want %v", req.Spanner, cached, want)
		}
	}
	if arts, pins := e.cache.artifacts(); arts != 1 || pins != 1 {
		t.Fatalf("%d splitter artifacts with %d pins, want the split plan's one, pinned", arts, pins)
	}
}

// TestPlanOfEvictedSplitterNotCached evicts a splitter artifact while the
// plan that took it still compiles: the plan is served and not cached,
// since its splitter would be charged to no entry.
func TestPlanOfEvictedSplitterNotCached(t *testing.T) {
	ctx := context.Background()
	c := newPlanCache(cacheConfig{cap: 2})
	plan, hit, err := c.get(ctx, "", "p", func() (*Plan, error) {
		art, _, err := c.artifact("", sentenceFormula, 0)
		if err != nil {
			return nil, err
		}
		c.get(ctx, "", "filler", func() (*Plan, error) { return &Plan{}, nil }) // evicts the artifact
		return &Plan{s: art.s, split: art}, nil
	})
	if err != nil || hit || plan == nil {
		t.Fatalf("get: plan=%v hit=%v err=%v, want a served cold plan", plan, hit, err)
	}
	if arts, _ := c.artifacts(); arts != 0 {
		t.Fatal("the artifact survived the filler's insertion")
	}
	if st := c.stats(); st.Size != 1 || st.Bytes != (&Plan{}).cost() {
		t.Fatalf("cache stats %+v, want the filler alone", st)
	}
}
