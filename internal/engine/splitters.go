package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/regexformula"
	"repro/internal/vsa"
)

// splitterArtifact is everything a plan needs of its splitter S that
// depends on S alone: the compiled and prepared automaton wrapped as a
// core.Splitter — its disjointness memoized and its scanner built — and
// the S-only verdicts. Plans of one tenant over one splitter formula share
// one artifact (splitterTable), so S is compiled and decided once, not
// once per plan; every field is read-only once the artifact is built.
type splitterArtifact struct {
	s *core.Splitter
	// disjoint, local and note are the verdicts Plan.Verdicts copies:
	// note says "locality undecided" when the locality closure ran out of
	// budget.
	disjoint, local core.Verdict
	note            string
	// decideTime is the time spent deciding disjointness and locality.
	decideTime time.Duration
}

// newSplitterArtifact wraps a compiled splitter automaton, decides its
// disjointness and locality under limit, and prepares it. Locality — cut
// independence, decided on the splitter's compiled scanner, which is
// therefore built here — is one of the chunk grain's two proofs, which
// also decide whether a stream is segmented incrementally (chunked,
// Engine.WillStream). Only disjoint splitters have a scanner; an
// over-budget closure leaves the verdict unknown and the plan buffers.
func newSplitterArtifact(a *vsa.Automaton, limit int) (*splitterArtifact, error) {
	s, err := core.NewSplitter(a)
	if err != nil {
		return nil, fmt.Errorf("engine: splitter: %w", err)
	}
	art := &splitterArtifact{s: s, local: core.VerdictNo}
	t0 := time.Now()
	art.disjoint = core.VerdictOf(s.IsDisjoint())
	if art.disjoint == core.VerdictYes {
		local, err := s.IsLocal(limit)
		switch {
		case errors.Is(err, automata.ErrTooLarge):
			art.local, art.note = core.VerdictUnknown, "locality undecided: "+err.Error()
		case err != nil:
			return nil, fmt.Errorf("engine: locality: %w", err)
		default:
			art.local = core.VerdictOf(local)
		}
	}
	art.decideTime = time.Since(t0)
	a.Prepare()
	return art, nil
}

// splitterTable is an engine's table of splitter artifacts, keyed by
// tenant and splitter formula. It holds each artifact weakly; the plans
// that use it hold it strongly (Plan.split), so an artifact lives exactly
// as long as some cached or in-flight plan does, and a cleanup drops its
// key once it is collected — the table is bounded by the plan cache.
// Concurrent builds of one key run once (single flight). A build that
// fails or panics leaves no entry, so the next request retries it, as a
// failed plan is retried. The zero value is ready to use.
//
// A registered cleanup keeps the table reachable until its artifact is
// collected, so nothing that must be collectable on its own — the Engine
// above all — may be reachable from the table: an Engine points to its
// table, never embeds it.
type splitterTable struct {
	mu       sync.Mutex
	built    map[string]weak.Pointer[splitterArtifact]
	inflight map[string]*splitterFlight
	hits     atomic.Uint64 // builds skipped: artifacts served built, or by a build in flight that succeeded
}

// splitterFlight is one build in progress; done closes when art or err
// is set. waiters, under the table's mutex, counts the calls awaiting it.
type splitterFlight struct {
	done    chan struct{}
	art     *splitterArtifact
	err     error
	waiters int
}

var errSplitterPanicked = errors.New("engine: splitter: compilation failed")

// artifact returns the artifact of the splitter formula src for tenant,
// built under limit, and whether it was shared rather than built by this
// call.
func (t *splitterTable) artifact(tenant, src string, limit int) (*splitterArtifact, bool, error) {
	return t.get(fmt.Sprintf("%d:%s%s", len(tenant), tenant, src), func() (*splitterArtifact, error) {
		a, err := regexformula.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("engine: splitter: %w", err)
		}
		return newSplitterArtifact(a, limit)
	})
}

// get serves key's artifact — built, or awaited in flight — or runs build.
func (t *splitterTable) get(key string, build func() (*splitterArtifact, error)) (*splitterArtifact, bool, error) {
	t.mu.Lock()
	if art := t.built[key].Value(); art != nil {
		t.hits.Add(1)
		t.mu.Unlock()
		return art, true, nil
	}
	if f := t.inflight[key]; f != nil {
		f.waiters++
		t.mu.Unlock()
		<-f.done
		if f.err == nil {
			t.hits.Add(1)
		}
		return f.art, true, f.err
	}
	if t.inflight == nil {
		t.built = make(map[string]weak.Pointer[splitterArtifact])
		t.inflight = make(map[string]*splitterFlight)
	}
	f := &splitterFlight{done: make(chan struct{}), err: errSplitterPanicked}
	t.inflight[key] = f
	t.mu.Unlock()

	// A panic in build passes through finish with f.err still
	// errSplitterPanicked: the waiters see that error, no entry stays
	// behind, and the panic goes on to the plan cache's guard.
	defer t.finish(key, f)
	f.art, f.err = build()
	return f.art, false, f.err
}

// finish publishes a build: its artifact, weakly, on success; nothing on
// failure. Either way the waiters are released.
func (t *splitterTable) finish(key string, f *splitterFlight) {
	t.mu.Lock()
	delete(t.inflight, key)
	if f.err == nil {
		t.built[key] = weak.Make(f.art)
		runtime.AddCleanup(f.art, t.forget, key)
	}
	t.mu.Unlock()
	close(f.done)
}

// forget drops a collected artifact's key, unless a newer build of the
// same key, still alive, has replaced it since.
func (t *splitterTable) forget(key string) {
	t.mu.Lock()
	if t.built[key].Value() == nil {
		delete(t.built, key)
	}
	t.mu.Unlock()
}
