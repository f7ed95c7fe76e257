package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/automata"
	"repro/internal/core"
	"repro/internal/regexformula"
	"repro/internal/vsa"
)

// splitterArtifact is everything a plan needs of its splitter S that
// depends on S alone: the compiled and prepared automaton wrapped as a
// core.Splitter — its disjointness memoized and its scanner built — and
// the S-only verdicts. Plans of one tenant over one splitter formula share
// one artifact, an entry of the plan cache (planCache.artifact), so S is
// compiled and decided once, not once per plan; every field is read-only
// once the artifact is built.
type splitterArtifact struct {
	key string // its plan-cache key
	s   *core.Splitter
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
func newSplitterArtifact(key string, a *vsa.Automaton, limit int) (*splitterArtifact, error) {
	s, err := core.NewSplitter(a)
	if err != nil {
		return nil, fmt.Errorf("engine: splitter: %w", err)
	}
	art := &splitterArtifact{key: key, s: s, local: core.VerdictNo}
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

// cost is S's share of the cache's byte budgets: the per-state and
// per-edge charge Plan.cost gives an automaton. It is charged once, to the
// artifact's own entry, however many plans hold it.
func (a *splitterArtifact) cost() int64 {
	return automatonCost(a.s.Automaton())
}

// artifact returns tenant's artifact of the splitter formula src, built
// under limit, and whether it was shared rather than built by this call.
// Its key starts with "split:", so it never aliases a Request.key, which
// starts with a digit, or a BatchRequest.key ("batch:"). It takes no
// context: it runs inside a plan's build (see compile).
func (c *planCache) artifact(tenant, src string, limit int) (*splitterArtifact, bool, error) {
	key := fmt.Sprintf("split:%d:%s%s", len(tenant), tenant, src)
	v, hit, err := c.load(context.Background(), tenant, key, false, func() (cached, error) {
		a, err := regexformula.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("engine: splitter: %w", err)
		}
		return newSplitterArtifact(key, a, limit)
	})
	if err != nil {
		return nil, false, err
	}
	if hit {
		c.splitterHits.Add(1)
	}
	return v.(*splitterArtifact), hit, nil
}
