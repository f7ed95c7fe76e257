package vsa

import (
	"bytes"
	"sync/atomic"

	"repro/internal/lazydfa"
)

// This file implements literal prefiltering: extracting required
// literal evidence from a compiled automaton and using it to keep the
// DFA off trigger-free document regions (DESIGN.md, "Literal
// prefiltering"). Two sound, independent mechanisms:
//
//  1. A mandatory factor: a substring contained in every document the
//     automaton accepts, derived from the byte-class graph. Since the
//     automaton is functional, ⟦a⟧(d) ≠ ∅ implies d is accepted, so a
//     document without the factor has an empty relation — Eval and
//     EvalBool reject it with one vectorized strings.Contains before
//     any scan ("admission gate").
//  2. Per-DFA-state trigger sets: a scan confined to a small closed,
//     1-byte-synchronizing state set (lazydfa.SkipSet) advances to the
//     next trigger byte with bytes.IndexByte instead of stepping the
//     transition table per byte. Every non-trigger byte maps the whole
//     set to one state, so the DFA state at any skipped boundary is
//     Sync(previous byte): forward-scan checkpoints filled during a
//     skip are the true states and window re-seeding (scanGroup.seedAt)
//     is untouched. A single self-looping state is the degenerate
//     one-element set; the set form is what makes word-structured text
//     skippable, where the scan oscillates between a mid-word and a
//     post-separator state and no single state loops for long.
//
// Neither mechanism ever changes results: the factor gate is a
// language-level implication and the trigger skip is DFA-state-exact.
// Automata with no useful factor (alternations without a common
// literal, empty-document acceptors, …) simply run without the gate —
// PrefilterInfo reports why, and the trigger skip still applies
// wherever the lazily built DFA exposes an eligible state.
//
// Deliberately NOT done: skipping mid-scan with bytes.Index(factor).
// A multi-byte jump would teleport the DFA over partial factor
// occurrences that change its state, corrupting the checkpoints seedAt
// replays from. Only the state-exact single-byte trigger skip is sound
// inside the scan.

// PrefilterReason says why the factor admission gate of an automaton is
// (or is not) armed. The zero value means it is armed.
type PrefilterReason uint8

const (
	// PrefilterOK: a mandatory factor was extracted and gates admission.
	PrefilterOK PrefilterReason = iota
	// PrefilterOff: the gate was explicitly disabled (DisablePrefilter).
	PrefilterOff
	// PrefilterEmptyLanguage: the automaton accepts nothing; every
	// evaluation is empty without scanning, so there is nothing to gate.
	PrefilterEmptyLanguage
	// PrefilterAcceptsEmpty: the empty document is accepted, so no
	// nonempty substring can be mandatory.
	PrefilterAcceptsEmpty
	// PrefilterNoLiteralClass: no byte forms a singleton equivalence
	// class; every byte is interchangeable with another, so no single
	// byte (hence no string) can be mandatory.
	PrefilterNoLiteralClass
	// PrefilterNoMandatoryByte: literal byte classes exist but every one
	// can be avoided on some accepting path (e.g. alternations without a
	// common factor).
	PrefilterNoMandatoryByte
	// PrefilterBudget: the factor analysis exceeded its state budget and
	// gave up (sound: the gate just stays off).
	PrefilterBudget

	numPrefilterReasons
)

// NumPrefilterReasons is the number of PrefilterReason values, for
// sizing per-reason metric arrays.
const NumPrefilterReasons = int(numPrefilterReasons)

func (r PrefilterReason) String() string {
	switch r {
	case PrefilterOK:
		return "ok"
	case PrefilterOff:
		return "disabled"
	case PrefilterEmptyLanguage:
		return "empty-language"
	case PrefilterAcceptsEmpty:
		return "accepts-empty"
	case PrefilterNoLiteralClass:
		return "no-literal-class"
	case PrefilterNoMandatoryByte:
		return "no-mandatory-byte"
	case PrefilterBudget:
		return "analysis-budget"
	}
	return "unknown"
}

// maxFactorLen bounds the extracted factor. Longer factors barely
// sharpen the admission gate (strings.Contains cost is length-
// insensitive) while the growth loop pays one product reachability
// check per candidate extension.
const maxFactorLen = 16

// factorBudget bounds the (automaton state × factor-position) product
// explored per mandatory-substring check.
const factorBudget = 1 << 15

// PrefilterInfo describes the literal evidence extracted from an
// automaton: the mandatory factor gating admission (empty when the gate
// is off) and the reason.
type PrefilterInfo struct {
	// Factor is contained in every accepted document; "" when no factor
	// gates admission (see Reason).
	Factor string
	// Reason is PrefilterOK when Factor gates admission, else why not.
	Reason PrefilterReason
}

// prefilterBuilds counts factor extractions, so tests can prove the
// once-guarded build is not duplicated by concurrent Prepares.
var prefilterBuilds atomic.Uint64

// DisablePrefilter turns the literal prefilter off for this automaton:
// no factor admission gate, and the compiled scan paths (including a
// splitter scanner built on it) take no trigger skips. Differential
// tests use it to compare filtered and unfiltered scans. Like every
// change to the compiled state it must precede the first evaluation.
func (a *Automaton) DisablePrefilter() {
	a.checkMutable("DisablePrefilter")
	a.prefDisabled = true
}

// PrefilterDisabled reports whether DisablePrefilter was called.
// Exposed for core's splitter scanner, which honors the flag for its
// own trigger skips.
func (a *Automaton) PrefilterDisabled() bool { return a.prefDisabled }

// Prefilter returns the automaton's literal-evidence summary, building
// it (and freezing the automaton) on first use. The engine's
// compilePlan reaches it through Prepare, so cached plans carry the
// memoized factor.
func (a *Automaton) Prefilter() PrefilterInfo {
	return a.prefilter().info
}

// prefilterState is the memoized result of factor extraction.
type prefilterState struct {
	info PrefilterInfo
}

func (a *Automaton) prefilter() *prefilterState {
	a.prefOnce.Do(func() {
		a.frozen.Store(true)
		a.prefVal = a.buildPrefilter()
	})
	return a.prefVal
}

func (a *Automaton) buildPrefilter() *prefilterState {
	prefilterBuilds.Add(1)
	if a.prefDisabled {
		return &prefilterState{info: PrefilterInfo{Reason: PrefilterOff}}
	}
	b := newFactorBuilder(a)
	factor, reason := b.extract()
	return &prefilterState{info: PrefilterInfo{Factor: string(factor), Reason: reason}}
}

// factorBuilder runs the mandatory-substring analysis on the Boolean
// skeleton of the compiled evaluation program: states, byte-class
// transitions, final-bearing flags. Variable operations are irrelevant
// — acceptance alone decides admission.
type factorBuilder struct {
	p      *evalProg
	start  int32
	useful []bool
	// singleton[c] is the byte of class c when the class contains
	// exactly one byte, else -1. Only singleton-class bytes can be
	// mandatory: bytes sharing a class are interchangeable on every
	// edge, so either can replace the other in any accepting run.
	singleton []int16
	// Scratch reused by every candidate grow and mandatory check.
	cand  []byte
	fail  []int
	seen  []bool
	stack []factorNode
}

type factorNode struct {
	q int32
	k int
}

func newFactorBuilder(a *Automaton) *factorBuilder {
	p := a.prog()
	b := &factorBuilder{p: p, start: int32(a.Start), useful: a.Useful()}
	counts := make([]int, p.nclasses)
	bytesOf := make([]int16, p.nclasses)
	for x := 0; x < 256; x++ {
		c := p.classOf[x]
		counts[c]++
		bytesOf[c] = int16(x)
	}
	b.singleton = make([]int16, p.nclasses)
	for c := range b.singleton {
		if counts[c] == 1 {
			b.singleton[c] = bytesOf[c]
		} else {
			b.singleton[c] = -1
		}
	}
	return b
}

// extract finds the longest mandatory factor it can grow from a
// mandatory byte, or reports why none exists.
func (b *factorBuilder) extract() ([]byte, PrefilterReason) {
	p := b.p
	if !b.useful[b.start] {
		return nil, PrefilterEmptyLanguage
	}
	if p.hasFinal[b.start] {
		return nil, PrefilterAcceptsEmpty
	}
	hasLiteral := false
	budgetHit := false
	var best []byte
	for c := 0; c < p.nclasses; c++ {
		sb := b.singleton[c]
		if sb < 0 {
			continue
		}
		hasLiteral = true
		seed := []byte{byte(sb)}
		if bytes.Contains(best, seed) {
			continue // already inside the best factor
		}
		ok, over := b.mandatory(seed)
		if over {
			budgetHit = true
			continue
		}
		if !ok {
			continue
		}
		w := b.grow(seed, &budgetHit)
		if len(w) > len(best) {
			best = w
		}
	}
	if len(best) > 0 {
		return best, PrefilterOK
	}
	if !hasLiteral {
		return nil, PrefilterNoLiteralClass
	}
	if budgetHit {
		return nil, PrefilterBudget
	}
	return nil, PrefilterNoMandatoryByte
}

// grow extends a mandatory seed greedily to the right, then to the
// left, by singleton-class bytes, keeping every intermediate string
// mandatory. Greedy is safe: a string containing a mandatory string
// need not be mandatory itself, so each extension is re-checked.
func (b *factorBuilder) grow(w []byte, budgetHit *bool) []byte {
	for dir := 0; dir < 2; dir++ {
		for len(w) < maxFactorLen {
			extended := false
			for c := 0; c < b.p.nclasses && !extended; c++ {
				sb := b.singleton[c]
				if sb < 0 {
					continue
				}
				cand := b.cand[:0]
				if dir == 0 {
					cand = append(append(cand, w...), byte(sb))
				} else {
					cand = append(append(cand, byte(sb)), w...)
				}
				b.cand = cand
				ok, over := b.mandatory(cand)
				if over {
					*budgetHit = true
					continue
				}
				if ok {
					w = append([]byte(nil), cand...)
					extended = true
				}
			}
			if !extended {
				break
			}
		}
	}
	return w
}

// mandatory reports whether every accepted document contains w, by
// reachability on the product of the Boolean skeleton with the
// KMP avoid-w automaton: a final-bearing product state with the KMP
// component below |w| witnesses an accepted document avoiding w.
// over=true means the product exceeded factorBudget (answer unknown,
// treated as not mandatory).
//
// The byte alphabet refines cleanly: w consists of singleton-class
// bytes only, so a multi-byte class contains no byte of w and its KMP
// step is uniformly "reset to 0"; a singleton class steps KMP on its
// one byte.
func (b *factorBuilder) mandatory(w []byte) (ok, over bool) {
	p := b.p
	m := len(w)
	n, nc := p.nstates, p.nclasses
	if n*(m+1) > factorBudget {
		return false, true
	}
	b.fail = kmpFailure(b.fail, w)
	b.seen = append(b.seen[:0], make([]bool, n*(m+1))...)
	seen := b.seen
	stack := append(b.stack[:0], factorNode{b.start, 0})
	defer func() { b.stack = stack }()
	seen[int(b.start)*(m+1)] = true
	for len(stack) > 0 {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p.hasFinal[nd.q] {
			// An accepted document reaches here without ever completing
			// w (k == m states are never pushed): w is not mandatory.
			// nd.k < m always holds, including the (start, 0) root —
			// extract() rejects empty-document acceptors before growth,
			// and m ≥ 1.
			return false, false
		}
		for c := 0; c < nc; c++ {
			edges := p.succ[int(nd.q)*nc+c]
			if len(edges) == 0 {
				continue
			}
			k2 := 0
			if sb := b.singleton[c]; sb >= 0 {
				k2 = kmpStep(w, b.fail, nd.k, byte(sb))
				if k2 == m {
					continue // this byte completes w: path excluded
				}
			}
			for _, e := range edges {
				if !b.useful[e.to] {
					continue
				}
				idx := int(e.to)*(m+1) + k2
				if !seen[idx] {
					seen[idx] = true
					stack = append(stack, factorNode{e.to, k2})
				}
			}
		}
	}
	return true, false
}

// kmpFailure is the classic failure function (in fail's storage): fail[i]
// is the length of the longest proper prefix of w[:i+1] that is its suffix.
func kmpFailure(fail []int, w []byte) []int {
	fail = append(fail[:0], make([]int, len(w))...)
	k := 0
	for i := 1; i < len(w); i++ {
		for k > 0 && w[i] != w[k] {
			k = fail[k-1]
		}
		if w[i] == w[k] {
			k++
		}
		fail[i] = k
	}
	return fail
}

// kmpStep advances the matched-prefix length k on byte x.
func kmpStep(w []byte, fail []int, k int, x byte) int {
	for k > 0 && w[k] != x {
		k = fail[k-1]
	}
	if w[k] == x {
		return k + 1
	}
	return 0
}

// ---------- skip-set building for the scan DFAs ----------

// skipSet builds the synchronized skip set around state cur of a scan
// group's DFA. States with any end bit never enter a skip set: every
// boundary there is a candidate match end that some member's run-length
// encoder must see, or EvalBool's early accept. Dead stays a trigger, so
// both walks still see a dead frontier. fin bits are only read at the end
// of the document, where the state is sync-exact.
func (g *scanGroup) skipSet(cur int32) *lazydfa.SkipSet {
	st := g.dfa.Snapshot()
	return BuildSkipSet(g.nclasses, g.classOf[:],
		func(q int32) bool { return q >= dfaStart && st[q].Payload.end == 0 },
		nil,
		func(q int32, c uint8) (int32, bool) {
			t := st[q].Trans(c)
			if t < dfaDead || int(t) >= len(st) {
				t, st = g.dfa.Resolve(q, c)
			}
			return t, t != dfaOverflow
		}, cur)
}

// buildRounds bounds the trigger/closure fixpoint iteration of
// BuildSkipSet. Real sets settle in two or three rounds (the first
// round may chase a literal's progress chain before the synchronization
// test prunes it); failure to converge means "unskippable".
const buildRounds = 6

// BuildSkipSet computes the synchronized skip set containing DFA state
// cur, or nil when none exists. The result satisfies, for every byte b
// outside its trigger set: all states of the set transition on b to the
// SAME state (recorded in the sync table), that state is inside the set,
// it is eligible, and no member raises an event on b. Those invariants
// are what make a jump over trigger-free bytes exact: the state at any
// boundary inside the jump is sync[previous byte], regardless of where
// in the set the scan was.
//
// probe returns a state's transition on a class (ok=false aborts the
// build — e.g. an Overflow row is unknowable). eligible vetoes states
// that may not be skipped through (sentinels, states with per-boundary
// obligations such as a candidate match end). eventful (optional) marks
// state×class pairs where a client event fires; those classes trigger.
// classOf maps bytes to classes. Exposed for core's splitter scanner,
// the third lazydfa client.
//
// The fixpoint alternates two passes: classify every class against the
// candidate set (trigger iff the images differ, leave the set, are
// ineligible, or raise events), then re-close {cur} under the
// non-trigger classes. A closure that would exceed MaxSkipStates is
// truncated and the round marked incomplete — the next round's
// classification over the truncated set prunes the expansion (this is
// how a literal's progress chain, reachable in one step but not
// synchronized, is cut). Convergence requires a complete closure that
// reproduces the set.
func BuildSkipSet(nclasses int, classOf []uint8,
	eligible func(q int32) bool,
	eventful func(q int32, c uint8) bool,
	probe func(q int32, c uint8) (int32, bool),
	cur int32) *lazydfa.SkipSet {
	if !eligible(cur) {
		return nil
	}
	set := []int32{cur}
	trig := make([]bool, nclasses)
	img := make([]int32, nclasses)
	converged := false
	for round := 0; round < buildRounds && !converged; round++ {
		for c := 0; c < nclasses; c++ {
			trig[c] = false
			img[c] = -1
			for _, q := range set {
				t, ok := probe(q, uint8(c))
				if !ok {
					return nil
				}
				if eventful != nil && eventful(q, uint8(c)) {
					trig[c] = true
					break
				}
				if img[c] == -1 {
					img[c] = t
				} else if img[c] != t {
					trig[c] = true
					break
				}
			}
			if !trig[c] && !eligible(img[c]) {
				trig[c] = true
			}
		}
		next := []int32{cur}
		complete := true
		for qi := 0; qi < len(next); qi++ {
			for c := 0; c < nclasses; c++ {
				if trig[c] {
					continue
				}
				t, ok := probe(next[qi], uint8(c))
				if !ok {
					return nil
				}
				if !containsState(next, t) {
					if len(next) == lazydfa.MaxSkipStates {
						complete = false
						continue
					}
					next = append(next, t)
				}
			}
		}
		converged = complete && sameStates(next, set)
		set = next
	}
	if !converged {
		return nil
	}
	var sync [256]int32
	var triggers []byte
	for x := 0; x < 256; x++ {
		if c := classOf[x]; trig[c] {
			sync[x] = -1
			triggers = append(triggers, byte(x))
		} else {
			sync[x] = img[c]
		}
	}
	return lazydfa.NewSkipSet(triggers, set, &sync)
}

func containsState(set []int32, q int32) bool {
	for _, v := range set {
		if v == q {
			return true
		}
	}
	return false
}

func sameStates(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for _, q := range a {
		if !containsState(b, q) {
			return false
		}
	}
	return true
}
