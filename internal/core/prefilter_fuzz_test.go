package core

import (
	"strings"
	"testing"

	"repro/internal/regexformula"
	"repro/internal/span"
)

// FuzzPrefilterVsScan is the literal prefilter's correctness contract:
// on every formula the fuzzer can derive (the same seven families
// FuzzScanVsSplit explores), an automaton evaluated and streamed WITH
// the prefilter — factor admission gate plus trigger-byte skip loops in
// EvalBool, the forward scan and the splitter scanner — must be
// byte-identical to a prefilter-disabled copy: same relations, same
// Boolean verdicts, same split spans, and in chunked streaming the same
// spans, the same retention Anchor and the same bail decision after
// every single Feed. Chunk sizes 1 and 7 force skip streaks to span
// chunk boundaries; 4096 exercises whole-chunk jumps.
func FuzzPrefilterVsScan(f *testing.F) {
	longGap := strings.Repeat(" ", 700)
	f.Add(uint8(0), byte(0), byte(1), int64(1), "one. two! three\nfour.")
	f.Add(uint8(1), byte(4), byte(3), int64(2), "a b  c\nd ")
	f.Add(uint8(2), byte(1), byte(1), int64(3), "a;b;;c")
	f.Add(uint8(3), byte(0), byte(0), int64(4), "a.b.c.d")
	f.Add(uint8(4), byte(0), byte(2), int64(5), "ab.cd!e")
	f.Add(uint8(5), byte(2), byte(2), int64(6), "ab!cd!")
	f.Add(uint8(6), byte(5), byte(6), int64(7), "abba\x00\xffb")
	// Factor lands exactly on a 7-byte chunk boundary after a skippable gap.
	f.Add(uint8(0), byte(0), byte(1), int64(8), strings.Repeat("x", 7*3)+". tail")
	// Factor-free document: the admission gate must agree with the scan.
	f.Add(uint8(2), byte(1), byte(1), int64(9), longGap)
	// Long separator-free run: streaks cross many chunk boundaries.
	f.Add(uint8(1), byte(4), byte(3), int64(10), longGap+"w."+longGap)
	// A trigger-dense run longer than the skip gate's window, then a
	// sparse tail: the gate stands down mid-stream — in Split and in the
	// ScanRun at every chunk size — and the tail is stepped plainly.
	f.Add(uint8(0), byte(0), byte(0), int64(11),
		strings.Repeat("a.", 64)+strings.Repeat("x", 900)+". tail "+strings.Repeat("y", 600)+".")
	// The same shape for .*(x{b})a*, whose trigger is 'a': the gate stands
	// down mid-pass in EvalBool and in Eval's forward scan, and in the
	// ScanRun at chunk sizes 1 and 7.
	f.Add(uint8(6), byte(0), byte(0), int64(148),
		strings.Repeat("ac", 64)+strings.Repeat("c", 1500)+"ab")
	f.Fuzz(func(t *testing.T, mode uint8, c1, c2 byte, seed int64, doc string) {
		// Cap the document: the differential runs whole-document Eval twice,
		// whose worst case is quadratic, and a short-timed CI smoke should
		// spend its budget on many inputs rather than one adversarial doc.
		if len(doc) > 1<<11 {
			doc = doc[:1<<11]
		}
		src := scanFuzzFormula(mode, c1, c2, seed)
		onAuto, err := regexformula.Compile(src)
		if err != nil || onAuto.Arity() != 1 {
			t.Skip()
		}
		offAuto := regexformula.MustCompile(src)
		offAuto.DisablePrefilter()

		if g, w := onAuto.EvalBool(doc), offAuto.EvalBool(doc); g != w {
			t.Fatalf("EvalBool: filtered=%v unfiltered=%v on %q\nformula %s", g, w, doc, src)
		}
		if g, w := onAuto.Eval(doc), offAuto.Eval(doc); !g.Equal(w) {
			t.Fatalf("Eval differs on %q\nformula %s\nfiltered:   %v\nunfiltered: %v", doc, src, g, w)
		}

		on, err := NewSplitter(onAuto)
		if err != nil {
			t.Skip()
		}
		off, err := NewSplitter(offAuto)
		if err != nil {
			t.Fatalf("NewSplitter succeeded filtered but failed unfiltered: %v", err)
		}
		if g, w := on.Split(doc), off.Split(doc); !spansEqual(g, w) {
			t.Fatalf("Split differs on %q\nformula %s\nfiltered:   %v\nunfiltered: %v", doc, src, g, w)
		}

		onRun, have := on.NewScanRun()
		offRun, haveOff := off.NewScanRun()
		if have != haveOff {
			t.Fatalf("NewScanRun: filtered=%v unfiltered=%v\nformula %s", have, haveOff, src)
		}
		if !have {
			return // not disjoint: no scanner to stream with
		}
		for _, n := range []int{1, 7, 4096} {
			if n > 1 {
				onRun, _ = on.NewScanRun()
				offRun, _ = off.NewScanRun()
			}
			var gotOn, gotOff []span.Span
			okOn, okOff := true, true
			for lo := 0; lo < len(doc); lo += n {
				hi := lo + n
				if hi > len(doc) {
					hi = len(doc)
				}
				gotOn, okOn = onRun.Feed([]byte(doc[lo:hi]), gotOn)
				gotOff, okOff = offRun.Feed([]byte(doc[lo:hi]), gotOff)
				if okOn != okOff || !spansEqual(gotOn, gotOff) || onRun.Anchor() != offRun.Anchor() {
					t.Fatalf("chunked scan (n=%d) diverged after byte %d on %q\nformula %s\n"+
						"filtered:   ok=%v anchor=%d %v\nunfiltered: ok=%v anchor=%d %v",
						n, hi, doc, src, okOn, onRun.Anchor(), gotOn, okOff, offRun.Anchor(), gotOff)
				}
				if !okOn {
					break
				}
			}
			if okOn {
				gotOn, okOn = onRun.Flush(gotOn)
				gotOff, okOff = offRun.Flush(gotOff)
				if okOn != okOff || !spansEqual(gotOn, gotOff) {
					t.Fatalf("Flush (n=%d) diverged on %q\nformula %s\nfiltered:   ok=%v %v\nunfiltered: ok=%v %v",
						n, doc, src, okOn, gotOn, okOff, gotOff)
				}
			}
		}
	})
}
