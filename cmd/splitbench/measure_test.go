package main

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/library"
	"repro/internal/parallel"
	"repro/internal/regexformula"
)

func TestSplitEvalCatchesNonSplitCorrectness(t *testing.T) {
	// Splitting a 2-byte-span extractor by unit tokens is not
	// split-correct; measure must detect the mismatch and report it as an
	// error (wrapping errSplitMismatch), not panic inside library code.
	p := regexformula.MustCompile(".*y{ab}.*")
	s, err := core.NewSplitter(regexformula.MustCompile(".*x{.}.*"))
	if err != nil {
		t.Fatal(err)
	}
	doc := "abab"
	segs := parallel.SegmentsOf(doc, s.Split(doc))
	m, err := measure("bad", p, p, doc, segs, 2)
	if !errors.Is(err, errSplitMismatch) {
		t.Fatalf("err = %v, want errSplitMismatch", err)
	}
	if m.Sequential <= 0 || m.Split <= 0 {
		t.Fatalf("measurement timings must survive a mismatch: %+v", m)
	}
}

func TestMeasureCollectionCatchesNonSplitCorrectness(t *testing.T) {
	p := regexformula.MustCompile(".*y{ab}.*")
	s, err := core.NewSplitter(regexformula.MustCompile(".*x{.}.*"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = measureCollection("bad", p, p, []string{"abab", "ab"}, s.Split, 2)
	if !errors.Is(err, errSplitMismatch) {
		t.Fatalf("err = %v, want errSplitMismatch", err)
	}
}

func TestMeasureReportsAgreeingRun(t *testing.T) {
	p := library.NegativeSentiment()
	doc := corpus.Wikipedia(3, 2000) + "very bad coffee."
	segs := parallel.SegmentsOf(doc, library.FastSentenceSplit(doc))
	m, err := measure("wiki", p, p, doc, segs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tuples == 0 {
		t.Fatal("expected at least one extraction")
	}
	if m.Sequential <= 0 || m.Split <= 0 || m.Speedup <= 0 {
		t.Fatalf("implausible measurement: %+v", m)
	}
}

func TestMeasureCollection(t *testing.T) {
	p := library.NegativeSentiment()
	docsIn := corpus.Reviews(41, 60)
	m, err := measureCollection("amazon", p, p, docsIn, library.FastSentenceSplit, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tuples == 0 {
		t.Fatal("expected some sentiment extractions")
	}
}
