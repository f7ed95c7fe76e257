package vsa_test

// Formula-level factor-extraction tests: compiled through the regex
// formula front end (hence the external test package — regexformula
// imports vsa), these pin down the literal evidence the prefilter finds
// on realistic extractor shapes, and that the filtered evaluation paths
// agree with prefilter-disabled copies of the same formulas.

import (
	"strings"
	"testing"

	"repro/internal/library"
	"repro/internal/regexformula"
	"repro/internal/span"
	"repro/internal/vsa"
)

func compile(t *testing.T, src string) *vsa.Automaton {
	t.Helper()
	a, err := regexformula.Compile(src)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return a
}

func TestPrefilterFormulaFactors(t *testing.T) {
	cases := []struct {
		name, src, factor string
		reason            vsa.PrefilterReason
	}{
		{"anchored literal", `bad (y{[a-z]+})`, "bad ", vsa.PrefilterOK},
		{"unanchored literal", `.*(y{bad}).*`, "bad", vsa.PrefilterOK},
		{"alternation with common factor", `(y{(abc|zbc)})`, "bc", vsa.PrefilterOK},
		{"alternation without common factor", `(y{(foo|bar)})`, "", vsa.PrefilterNoMandatoryByte},
		{"case class collapses to suffix", `(y{[Bb]ad})`, "ad", vsa.PrefilterOK},
		{"optional prefix keeps factor", `(.*[ .!?` + "\\n" + `])?bad (y{[a-z]+})(([^a-z].*)?|)`, "bad ", vsa.PrefilterOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pf := compile(t, tc.src).Prefilter()
			if pf.Factor != tc.factor || pf.Reason != tc.reason {
				t.Fatalf("%s: got factor %q reason %v, want %q/%v",
					tc.src, pf.Factor, pf.Reason, tc.factor, tc.reason)
			}
		})
	}
}

// TestPrefilterLibraryNegativeSentiment pins the factor of the benchmark
// suite's headline extractor: the sparse-corpus rates of the ledger
// (vsa.eval_mbps, vsa.evalbool_mbps) rest on this gate being armed.
func TestPrefilterLibraryNegativeSentiment(t *testing.T) {
	pf := library.NegativeSentiment().Prefilter()
	if pf.Reason != vsa.PrefilterOK || pf.Factor != "bad " {
		t.Fatalf("NegativeSentiment: got factor %q reason %v, want \"bad \"/ok", pf.Factor, pf.Reason)
	}
}

// TestPrefilterFormulaEvalAgrees runs the compiled formulas with and
// without the prefilter over documents placing the factor at awkward
// offsets, asserting identical relations and Boolean verdicts.
func TestPrefilterFormulaEvalAgrees(t *testing.T) {
	srcs := []string{
		`bad (y{[a-z]+})`,
		`.*(y{bad}).*`,
		`(y{(abc|zbc)})`,
		`(y{(foo|bar)})`,
		`(.*[ .!?` + "\\n" + `])?bad (y{[a-z]+})(([^a-z].*)?|)`,
	}
	pad := strings.Repeat("the quick brown fox. ", 40)
	for _, src := range srcs {
		on := compile(t, src)
		off := compile(t, src)
		off.DisablePrefilter()
		docs := []string{
			"",
			"bad service",
			"abc", "zbc", "foo", "bar",
			pad,
			pad + "bad stuff",
			"bad luck. " + pad,
			pad + "bad day. " + pad,
			strings.Repeat("b", 100) + "ad x", // near-misses of the factor
		}
		for _, doc := range docs {
			if g, w := on.EvalBool(doc), off.EvalBool(doc); g != w {
				t.Fatalf("%s: EvalBool filtered=%v unfiltered=%v on %q…", src, g, w, doc[:min(len(doc), 24)])
			}
			g, w := on.Eval(doc), off.Eval(doc)
			if !g.Equal(w) {
				t.Fatalf("%s: Eval differs on %q…:\nfiltered:   %v\nunfiltered: %v",
					src, doc[:min(len(doc), 24)], g, w)
			}
		}
	}
}

// TestPrefilterSkipYieldPerShape pins the skip gate's yield rule on the
// two shapes it separates. The sixteen fused words of BenchmarkScanPaths
// have eight trigger bytes that begin common words, so on a 256 KiB
// review document their jumps gain a couple of bytes each: the fused
// pass stands its skip set down, and its relations still equal those of
// prefilter-disabled members. NegativeSentiment alone jumps from one
// "b" to the next over the same document: it never stands down and
// skips more than 90 % of the bytes.
func TestPrefilterSkipYieldPerShape(t *testing.T) {
	doc := scanReviewDoc(256 << 10)
	members := make([]*vsa.Automaton, len(scanWords))
	for i, w := range scanWords {
		members[i] = compile(t, `(.*[ .!?\n])?`+w+` (y{[a-z]+})(([^a-z].*)?|)`)
	}
	m := vsa.NewMulti(members...)
	var mm vsa.Record
	got := evalInto(m, doc, &mm)
	if mm[vsa.FusedPasses] != 1 || mm[vsa.FusedStandDowns] != 1 {
		t.Fatalf("fused passes %d, stand-downs %d: want the one fused pass stood down",
			mm[vsa.FusedPasses], mm[vsa.FusedStandDowns])
	}
	for i, w := range scanWords {
		off := compile(t, `(.*[ .!?\n])?`+w+` (y{[a-z]+})(([^a-z].*)?|)`)
		off.DisablePrefilter()
		if want := off.Eval(doc); !got[i].Equal(want) {
			t.Fatalf("member %q: fused relation has %d tuples, prefilter-disabled %d", w, got[i].Len(), want.Len())
		}
	}

	neg := library.NegativeSentiment()
	var em vsa.Record
	if evalInto(vsa.NewMulti(neg), doc, &em)[0].Len() == 0 {
		t.Fatal("no NegativeSentiment match in the review document")
	}
	if n := em[vsa.PrefilterStandDowns]; n != 0 {
		t.Fatalf("NegativeSentiment stood down %d times", n)
	}
	if skipped := em[vsa.PrefilterSkippedBytes]; 10*skipped <= 9*uint64(len(doc)) {
		t.Fatalf("NegativeSentiment skipped %d of %d bytes, want more than 90 %%", skipped, len(doc))
	}
}

// evalInto is m.Eval on a session counting into rec.
func evalInto(m *vsa.Multi, doc string, rec *vsa.Record) []*span.Relation {
	s := m.NewSession(rec)
	defer s.Close()
	return s.Eval(doc)
}
