package core

// Verdict is the memoized outcome of one of the package's decision
// procedures. The procedures are PSPACE-complete in general (Theorem 5.1)
// and run under a state-space limit, so besides yes/no a verdict can be
// unknown: either it has not been computed yet, or the limit was exceeded
// (automata.ErrTooLarge) and the caller fell back to a safe strategy.
// Long-lived callers such as the extraction engine cache verdicts next to
// the compiled automata so the cost is paid once per (spanner, splitter)
// pair rather than once per request.
type Verdict int8

// The three verdict values. VerdictUnknown is the zero value so that a
// zero PlanVerdicts means "nothing decided yet".
const (
	VerdictUnknown Verdict = iota
	VerdictYes
	VerdictNo
)

// VerdictOf converts a decision procedure's boolean answer to a Verdict.
func VerdictOf(ok bool) Verdict {
	if ok {
		return VerdictYes
	}
	return VerdictNo
}

func (v Verdict) String() string {
	switch v {
	case VerdictYes:
		return "yes"
	case VerdictNo:
		return "no"
	}
	return "unknown"
}

// MarshalText renders the verdict as its String form, so JSON consumers
// see "yes"/"no"/"unknown" rather than integers.
func (v Verdict) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// PlanVerdicts groups the verdicts that determine how a (spanner,
// splitter) pair may be evaluated: whether the splitter is disjoint
// (Proposition 5.5), whether the pair is split-correct for a supplied
// split-spanner (Theorem 5.1/5.7), whether the spanner is
// self-splittable (Theorems 5.16–5.17), and whether the splitter is
// local (Splitter.IsLocal) — cut independent: a chunk of a document from
// a span start to a span end splits into exactly the spans it covers,
// which licenses the chunked route and incremental streaming. Note
// records why a verdict is unknown (typically the state-space limit).
type PlanVerdicts struct {
	Disjoint       Verdict `json:"disjoint,omitempty"`
	SplitCorrect   Verdict `json:"split_correct,omitempty"`
	SelfSplittable Verdict `json:"self_splittable,omitempty"`
	Local          Verdict `json:"local,omitempty"`
	Note           string  `json:"note,omitempty"`
}
