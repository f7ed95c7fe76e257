package vsa

import (
	"sync/atomic"

	"repro/internal/obs"
)

// MetricsMinDocBytes is the smallest document an instrumented
// evaluation times. Below it the two clock reads that separate the
// localize and simulation phases would cost a measurable fraction of
// the evaluation itself (a sentence-sized segment evaluates in about a
// microsecond; the split executor runs tens of thousands of them per
// document), so small evaluations skip the stopwatch entirely — their
// time is still fully accounted by the executor's per-chunk timers,
// just not attributed to sub-phases.
const MetricsMinDocBytes = 4 << 10

// EvalMetrics collects the window localizer's share of evaluation work
// across every instrumented evaluation of an automaton (see
// Automaton.SetEvalMetrics). All fields are cumulative and lock-free;
// recording is a handful of uncontended atomic adds per instrumented
// (≥ MetricsMinDocBytes) evaluation and exactly zero work — one nil
// check — per small one.
type EvalMetrics struct {
	// Evals counts instrumented evaluations; DocBytes their input size.
	Evals    obs.Counter
	DocBytes obs.Counter
	// LocalizeNS and SimNS split an instrumented evaluation's wall time
	// into the bidirectional window localization (forward end scan +
	// backward narrowing) and the tagged frontier simulation inside the
	// windows. Their sum over Evals is the evaluation stage's
	// instrumented wall time.
	LocalizeNS obs.Counter
	SimNS      obs.Counter
	// Windows and WindowBytes measure how much document the simulation
	// actually had to touch; EmptyDocs counts evaluations the forward
	// scan rejected outright (no candidate match end — the simulation
	// never ran); Fallbacks counts evaluations that took the
	// whole-document path (no localizer, or DFA overflow) or ran a window
	// on the uncached tagged step (tag DFA overflow, > 256 symbols).
	Windows     obs.Counter
	WindowBytes obs.Counter
	EmptyDocs   obs.Counter
	Fallbacks   obs.Counter
	// PrefilterSkippedBytes counts document bytes the literal prefilter
	// let evaluation avoid: whole documents rejected by the mandatory-
	// factor admission gate plus bytes the forward scan's trigger-byte
	// skip loop jumped over. PrefilterCandidates counts instrumented
	// evaluations that survived the admission gate and went on to scan
	// (on factor-less automata every evaluation is a candidate).
	// PrefilterStandDowns counts instrumented evaluations whose skip loop
	// stood down because its jumps gained less than stepping.
	PrefilterSkippedBytes obs.Counter
	PrefilterCandidates   obs.Counter
	PrefilterStandDowns   obs.Counter
	// PrefilterDisabled counts instrumented evaluations per prefilter
	// admission-gate status, indexed by PrefilterReason. Index
	// PrefilterOK means the gate is armed with a factor; the other
	// indexes say why no factor gate applies (the trigger-byte skip loop
	// still runs unless the reason is PrefilterOff).
	PrefilterDisabled [NumPrefilterReasons]obs.Counter
}

// SetEvalMetrics attaches a metrics collector to the automaton: every
// later Eval/EvalAppend of a document of at least MetricsMinDocBytes
// records its localize/simulate split and window statistics into m.
// Attaching nil detaches. Unlike the evaluation caches this is not part
// of the frozen compiled state — it may be set at any time (the engine
// attaches its collector to plans as they are compiled) and is read
// with a single atomic load on the evaluation path.
func (a *Automaton) SetEvalMetrics(m *EvalMetrics) {
	a.evalMetrics.Store(m)
}

// metricsFor returns the collector to record this evaluation into, or
// nil when the evaluation is too small to time (or none is attached).
func (a *Automaton) metricsFor(doc string) *EvalMetrics {
	if len(doc) < MetricsMinDocBytes {
		return nil
	}
	return a.evalMetrics.Load()
}

// evalMetricsPtr wraps the atomic pointer so Automaton's field list
// stays readable.
type evalMetricsPtr = atomic.Pointer[EvalMetrics]
