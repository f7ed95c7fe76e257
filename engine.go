package spanners

import (
	"repro/internal/engine"
)

// Engine is a long-lived streaming extraction engine: it memoizes
// compiled automata and decision-procedure verdicts (split-correctness,
// disjointness, locality) in a plan cache (LRU + single-flight),
// streams documents chunk-by-chunk through the splitter whenever the
// locality verdict proves that safe (buffering them whole otherwise),
// and evaluates segments on a shared split executor with
// bounded-backpressure dispatch. Use it when serving
// many extraction requests; the one-shot façade functions
// (SplitCorrect, ParallelEval, ...) re-run the decision procedures every
// call. See internal/engine and DESIGN.md for the architecture; cmd/spand
// serves an Engine over HTTP.
type Engine = engine.Engine

// EngineConfig tunes an Engine; the zero value selects defaults
// (GOMAXPROCS workers, 128-plan cache, 16-segment batches, 64 KiB
// chunks, stream-when-proven-local).
type EngineConfig = engine.Config

// EngineStats is a monitoring snapshot of an Engine.
type EngineStats = engine.Stats

// ExtractRequest names an extraction plan by its formulas — the plan
// cache key.
type ExtractRequest = engine.Request

// Plan is a compiled, verdict-annotated extraction plan produced by
// Engine.Plan.
type Plan = engine.Plan

// NewEngine returns an engine with the given configuration.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }
