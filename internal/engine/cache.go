package engine

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// CacheStats is a snapshot of plan-cache counters. Hits and Coalesced
// both denote requests that did not compile: a hit found a completed
// plan, a coalesced request joined an in-flight compilation of the same
// key (the single-flight path). Misses counts actual compilations,
// including ones that ended in an error (errors are not cached, so a
// later request retries). SplitterHits counts plan compilations that took
// their splitter — compiled, with its disjointness, locality and scanner
// — from the cache, built or from a build in flight that succeeded,
// instead of building it; they are plan misses all the same. Evictions
// counts removals forced by the global entry/byte budgets,
// TenantEvictions removals forced by a single tenant's quota, and
// Oversize entries whose estimated cost alone exceeded the per-tenant
// byte budget (they are built, served and not cached — a hostile tenant
// cannot pin the cache with one huge plan). Size, Bytes and Tenants
// cover plans and splitter artifacts alike.
type CacheStats struct {
	Hits            uint64  `json:"hits"`
	SplitterHits    uint64  `json:"splitter_hits"`
	Misses          uint64  `json:"misses"`
	Coalesced       uint64  `json:"coalesced"`
	Evictions       uint64  `json:"evictions"`
	TenantEvictions uint64  `json:"tenant_evictions"`
	Oversize        uint64  `json:"oversize"`
	Size            int     `json:"size"`
	Cap             int     `json:"cap"`
	Bytes           int64   `json:"bytes"`
	MaxBytes        int64   `json:"max_bytes"`
	Tenants         int     `json:"tenants"`
	HitRate         float64 `json:"hit_rate"`
}

// cacheConfig bounds the plan cache. The entry caps bound how many
// plans and splitter artifacts are held; the byte budgets bound their
// summed estimated memory cost (cost), so many small plans and few huge
// ones hit the same ceiling. Per-tenant budgets carve the global budgets
// up: one tenant churning unique formulas evicts its own entries, never
// another tenant's.
type cacheConfig struct {
	cap         int   // max entries, all tenants (≥ 1)
	maxBytes    int64 // max summed cost; ≤ 0 = unlimited
	tenantCap   int   // max entries per tenant; ≤ 0 = cap
	tenantBytes int64 // max summed cost per tenant; ≤ 0 = maxBytes
}

func (c cacheConfig) withDefaults() cacheConfig {
	if c.cap < 1 {
		c.cap = 1
	}
	if c.tenantCap <= 0 || c.tenantCap > c.cap {
		c.tenantCap = c.cap
	}
	if c.tenantBytes <= 0 || (c.maxBytes > 0 && c.tenantBytes > c.maxBytes) {
		c.tenantBytes = c.maxBytes
	}
	return c
}

// planCache is the engine's one memo table: an LRU of compiled plans
// and of the splitter artifacts they share, with single-flight
// deduplication, bounded by entry counts and estimated cost, both
// globally and per tenant. Concurrent lookups of one key run its build
// exactly once, with the late arrivals blocking on the in-flight entry
// instead of re-running the decision procedures. An artifact is not
// evicted while a cached plan holds it (pins); once none does, it is an
// ordinary LRU entry.
type planCache struct {
	mu      sync.Mutex
	cfg     cacheConfig
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	bytes   int64
	tenants map[string]*tenantUsage

	hits            uint64
	misses          uint64
	coalesced       uint64
	evictions       uint64
	tenantEvictions uint64
	oversize        uint64
	splitterHits    atomic.Uint64
}

// tenantUsage tracks one tenant's share of the cache. entries includes
// in-flight builds (so a tenant cannot stampede past its quota with
// parallel misses); bytes only completed entries, whose cost is known.
type tenantUsage struct {
	entries int
	bytes   int64
}

// cached is a value the cache memoizes: a *Plan or a *splitterArtifact.
type cached interface{ cost() int64 }

type cacheEntry struct {
	key    string
	tenant string
	cost   int64         // estimated memory; 0 while in-flight
	ready  chan struct{} // closed when val/err are set
	done   bool          // guarded by planCache.mu
	val    cached
	err    error
	// pins counts the cached plans holding this artifact; split is the
	// artifact entry a cached plan pins. Both are guarded by planCache.mu.
	pins  int
	split *cacheEntry
}

func newPlanCache(cfg cacheConfig) *planCache {
	cfg = cfg.withDefaults()
	return &planCache{
		cfg:     cfg,
		ll:      list.New(),
		items:   make(map[string]*list.Element, cfg.cap),
		tenants: make(map[string]*tenantUsage),
	}
}

// get returns the cached plan for key, building it with build on a miss.
// hit reports whether the plan came from the cache (including the
// coalesced single-flight case). Build errors are propagated to every
// waiter but not cached. A coalesced waiter whose own ctx is cancelled
// stops waiting and returns its ctx error; the in-flight build is not
// affected (it still serves the remaining waiters and populates the
// cache). tenant scopes the quota accounting; the key must already
// incorporate it (Request.key does).
func (c *planCache) get(ctx context.Context, tenant, key string, build func() (*Plan, error)) (*Plan, bool, error) {
	v, hit, err := c.load(ctx, tenant, key, true, func() (cached, error) { return build() })
	plan, _ := v.(*Plan)
	return plan, hit, err
}

// load is the single flight under get and artifact: it serves key's
// value, built or awaited in flight, or runs build. Only plan lookups
// count as hits, coalesced waits and misses.
func (c *planCache) load(ctx context.Context, tenant, key string, plan bool, build func() (cached, error)) (v cached, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		switch {
		case !plan:
		case e.done:
			c.hits++
		default:
			c.coalesced++
		}
		c.mu.Unlock()
		select {
		case <-e.ready:
			return e.val, true, e.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	e := &cacheEntry{key: key, tenant: tenant, ready: make(chan struct{})}
	el := c.ll.PushFront(e)
	c.items[key] = el
	c.usage(tenant).entries++
	if plan {
		c.misses++
	}
	c.evictLocked(e)
	c.mu.Unlock()

	v, err = runBuild(build)

	c.mu.Lock()
	e.val, e.err, e.done = v, err, true
	if err != nil {
		// Do not cache failures: a later identical request should retry
		// (the failure may be transient, e.g. a cancelled context).
		c.removeLocked(el)
	} else {
		c.publishLocked(el)
	}
	c.mu.Unlock()
	close(e.ready)
	return v, false, err
}

// publishLocked charges a completed entry and pins the artifact of a
// plan. An entry whose cost alone exceeds the tenant's whole byte budget
// is served but not cached — e.cost stays 0, it was never charged — and
// so is a plan whose artifact left the cache while the plan compiled:
// every cached plan's splitter is charged, once, to its artifact's entry.
func (c *planCache) publishLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	cost := e.val.cost()
	if c.cfg.tenantBytes > 0 && cost > c.cfg.tenantBytes {
		c.oversize++
		c.removeLocked(el)
		return
	}
	if p, ok := e.val.(*Plan); ok && p.split != nil {
		sel := c.items[p.split.key]
		if sel == nil || sel.Value.(*cacheEntry).val != p.split {
			c.removeLocked(el)
			return
		}
		e.split = sel.Value.(*cacheEntry)
		e.split.pins++
	}
	e.cost = cost
	c.bytes += cost
	c.usage(e.tenant).bytes += cost
	c.evictLocked(e)
}

func (c *planCache) usage(tenant string) *tenantUsage {
	u := c.tenants[tenant]
	if u == nil {
		u = &tenantUsage{}
		c.tenants[tenant] = u
	}
	return u
}

// removeLocked drops an entry and its accounting, and unpins the
// artifact of a cached plan.
func (c *planCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	if e.split != nil {
		e.split.pins--
	}
	c.bytes -= e.cost
	if u := c.tenants[e.tenant]; u != nil {
		u.entries--
		u.bytes -= e.cost
		if u.entries <= 0 && u.bytes <= 0 {
			delete(c.tenants, e.tenant)
		}
	}
}

// evictLocked enforces the four budgets after keep was inserted or
// finished building, evicting from the LRU tail. keep itself, in-flight
// entries and pinned artifacts are never evicted (an in-flight entry's
// waiters must be served; it is re-checked for eviction when it
// completes, via its own evictLocked call). Tenant-quota evictions only
// touch the over-quota tenant's entries; global-budget evictions take the
// least-recently-used evictable entry of any tenant.
func (c *planCache) evictLocked(keep *cacheEntry) {
	// The tenant loops only run when the per-tenant quota is strictly
	// tighter than the global budget; otherwise the global checks below
	// subsume them (a single tenant's usage never exceeds the total) and
	// evictions are attributed to the global counter.
	tu := c.usage(keep.tenant)
	if c.cfg.tenantCap < c.cfg.cap {
		for tu.entries > c.cfg.tenantCap && c.evictOneLocked(keep, keep.tenant) {
			c.tenantEvictions++
		}
	}
	if c.cfg.tenantBytes > 0 && (c.cfg.maxBytes <= 0 || c.cfg.tenantBytes < c.cfg.maxBytes) {
		for tu.bytes > c.cfg.tenantBytes && c.evictOneLocked(keep, keep.tenant) {
			c.tenantEvictions++
		}
	}
	for c.ll.Len() > c.cfg.cap && c.evictOneLocked(keep, "") {
		c.evictions++
	}
	for c.cfg.maxBytes > 0 && c.bytes > c.cfg.maxBytes && c.evictOneLocked(keep, "") {
		c.evictions++
	}
}

// evictOneLocked removes the least-recently-used evictable entry —
// restricted to one tenant's entries when tenant is non-empty — and
// reports whether it found one.
func (c *planCache) evictOneLocked(keep *cacheEntry, tenant string) bool {
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		if e == keep || !e.done || e.pins > 0 {
			continue
		}
		if tenant != "" && e.tenant != tenant {
			continue
		}
		c.removeLocked(el)
		return true
	}
	return false
}

// errBuildPanicked is the error runBuild turns a panicking build into.
var errBuildPanicked = errors.New("engine: compilation failed")

// runBuild runs build, converting a panic into an error wrapping
// errBuildPanicked: the safety net for hostile input that no typed
// compile error catches. If a panic escaped here the in-flight cache entry
// would keep its ready channel open forever and every later request for
// the same key would block on it — one bad request permanently poisoning a
// cache key. As an error it takes the normal not-cached path instead.
func runBuild(build func() (cached, error)) (v cached, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, fmt.Errorf("%w: %v", errBuildPanicked, r)
		}
	}()
	return build()
}

// stats snapshots the counters.
func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Hits:            c.hits,
		Misses:          c.misses,
		Coalesced:       c.coalesced,
		Evictions:       c.evictions,
		TenantEvictions: c.tenantEvictions,
		Oversize:        c.oversize,
		SplitterHits:    c.splitterHits.Load(),
		Size:            c.ll.Len(),
		Cap:             c.cfg.cap,
		Bytes:           c.bytes,
		MaxBytes:        c.cfg.maxBytes,
		Tenants:         len(c.tenants),
	}
	if total := s.Hits + s.Coalesced + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits+s.Coalesced) / float64(total)
	}
	return s
}
