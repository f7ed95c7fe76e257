package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/parallel"
	"repro/internal/span"
	"repro/internal/vsa"
)

// measurement is one timed run of an experiment configuration.
type measurement struct {
	Sequential time.Duration // direct (or whole-document) evaluation time
	Split      time.Duration // split-then-distribute evaluation time
	Speedup    float64       // Sequential / Split
	Tuples     int           // result size, summed over documents
}

// errSplitMismatch is returned by measure and measureCollection when
// split and sequential evaluation disagree — the defining symptom of
// running a plan that is not split-correct for its splitter. The
// measurement returned alongside it still carries the timings, so the
// failing configuration can be reported.
var errSplitMismatch = errors.New("split evaluation disagrees with sequential evaluation; the spanner is not split-correct for this splitter")

// measure times sequential evaluation of p against split evaluation of ps
// over the segments, checks that the outputs agree, and reports the
// speedup: the experiment of Section 1. If the outputs disagree the
// timings are returned together with an error wrapping errSplitMismatch.
func measure(name string, p, ps *vsa.Automaton, doc string, segments []parallel.Segment, workers int) (measurement, error) {
	t0 := time.Now()
	seq := p.Eval(doc)
	seqDur := time.Since(t0)
	t1 := time.Now()
	par := parallel.SplitEval(ps, segments, workers)
	parDur := time.Since(t1)
	m := measurement{Sequential: seqDur, Split: parDur, Speedup: float64(seqDur) / float64(parDur), Tuples: seq.Len()}
	if !seq.Equal(par) {
		return m, fmt.Errorf("%s: %w", name, errSplitMismatch)
	}
	return m, nil
}

// measureCollection times whole-document scheduling against
// split-segment scheduling on a document collection with the same worker
// count, mirroring the paper's Spark experiments (Reuters, Amazon). Like
// measure, a disagreement between the two schedules is reported as an
// error wrapping errSplitMismatch.
func measureCollection(name string, p, ps *vsa.Automaton, docsIn []string, splitFn func(string) []span.Span, workers int) (measurement, error) {
	t0 := time.Now()
	whole := parallel.CollectionEval(p, docsIn, workers)
	wholeDur := time.Since(t0)
	t1 := time.Now()
	split := parallel.CollectionEvalSplit(ps, docsIn, splitFn, workers)
	splitDur := time.Since(t1)
	m := measurement{Sequential: wholeDur, Split: splitDur, Speedup: float64(wholeDur) / float64(splitDur)}
	for i := range whole {
		aligned, err := split[i].Project(whole[i].Vars)
		if err != nil {
			return m, fmt.Errorf("%s: document %d: %w", name, i, err)
		}
		if !aligned.Equal(whole[i]) {
			return m, fmt.Errorf("%s: document %d: %w", name, i, errSplitMismatch)
		}
		m.Tuples += whole[i].Len()
	}
	return m, nil
}
