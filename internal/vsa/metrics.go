package vsa

// MetricsMinDocBytes is the smallest document an instrumented
// evaluation times. Below it the two clock reads that separate the
// localize and simulation phases would cost a measurable fraction of
// the evaluation itself (a sentence-sized segment evaluates in about a
// microsecond; the split executor runs tens of thousands of them per
// document), so small evaluations skip the stopwatch entirely — their
// time is still fully accounted by the executor's per-chunk timers,
// just not attributed to sub-phases.
const MetricsMinDocBytes = 4 << 10

// Record is the evaluation part of one document's record: what the
// passes of the MultiSession counting into it did (see Multi.NewSession),
// one count per Stat. It is plain data — one goroutine fills one Record,
// and whoever holds several adds them up (Add) once their goroutines are
// done — so counting is a few integer adds per pass and, on a document of
// at least MetricsMinDocBytes, a few clock reads. A nil *Record counts
// nothing and reads no clock.
type Record [NumStats]uint64

// A Stat names one count of a Record.
type Stat int

// The evaluation stats, from Evals to PrefilterDisabled's last reason,
// are counted on a pass over a group of one (an automaton evaluated
// alone, or a member a Multi evaluates on its own group) for a document
// of at least MetricsMinDocBytes. The multi-query stats that follow are
// counted only for a Multi of two or more members.
const (
	// Evals counts such passes; DocBytes their input size.
	Evals Stat = iota
	DocBytes
	// Localize and Sim split a pass's wall time, in nanoseconds, into the
	// bidirectional window localization (forward end scan + backward
	// narrowing) and the tagged frontier simulation inside the windows.
	Localize
	Sim
	// Windows and WindowBytes measure how much document the simulation
	// actually had to touch; EmptyDocs counts passes the forward scan
	// rejected outright (no candidate match end — the simulation never
	// ran); Fallbacks counts passes that took the whole-document path (no
	// localizer, or DFA overflow) or ran a window on the uncached tagged
	// step (tag DFA overflow, > 256 symbols).
	Windows
	WindowBytes
	EmptyDocs
	Fallbacks
	// PrefilterSkippedBytes counts document bytes the literal prefilter
	// let evaluation avoid: whole documents rejected by the mandatory-
	// factor admission gate plus bytes the forward scan's trigger-byte
	// skip loop jumped over. PrefilterStandDowns counts passes whose skip
	// loop stood down because its jumps gained less than stepping.
	// PrefilterCandidates counts passes that survived the admission gate
	// and went on to scan (on factor-less automata every pass is a
	// candidate).
	PrefilterSkippedBytes
	PrefilterStandDowns
	PrefilterCandidates
	// PrefilterDisabled+r counts passes whose prefilter admission-gate
	// status is the PrefilterReason r. PrefilterOK means the gate is armed
	// with a factor; the other reasons say why no factor gate applies (the
	// trigger-byte skip loop still runs unless the reason is
	// PrefilterOff).
	PrefilterDisabled

	// FusedPasses counts fused forward scans (one per admitted group of
	// many per document); FusedBytes the document bytes they covered —
	// each such byte answered every admitted member of the group at once.
	FusedPasses Stat = iota + Stat(NumPrefilterReasons) - 1
	FusedBytes
	// FusedSkippedBytes counts bytes the fused scan's trigger-byte skip
	// loop jumped over (the literal prefilter's mid-scan mechanism);
	// FusedStandDowns counts fused passes whose skip gate stood down
	// because its jumps gained less than stepping.
	FusedSkippedBytes
	FusedStandDowns
	// DemuxTuples counts result tuples demultiplexed into per-member
	// relations (members evaluated on their own group included).
	DemuxTuples
	// AdmissionSkips counts (member, document) pairs the per-member
	// mandatory-factor admission bitmap excluded from the fused pass.
	AdmissionSkips
	// MemberFallbacks counts member evaluations a group of many did not
	// finish: on the member's own group of one for members no group of
	// many holds (no localizer, or a lone member) and members it handed
	// down on a fused-DFA overflow, and on the whole-document rung for
	// members whose narrowing overflowed.
	MemberFallbacks
	// NumStats is the length of a Record.
	NumStats
)

// Add adds o's counts to r.
func (r *Record) Add(o *Record) {
	for i, n := range o {
		r[i] += n
	}
}
