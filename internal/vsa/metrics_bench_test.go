package vsa_test

import (
	"strings"
	"testing"

	"repro/internal/regexformula"
	"repro/internal/vsa"
)

// Instrumentation-overhead check for the evaluation core: the same
// large-document evaluation on a session without a record (nil, the
// library default) and with one (the engine's configuration). Run
// interleaved (-count N) and compare; the acceptance bar for the
// observability layer is ≤ 2%.

func benchEvalMetrics(b *testing.B, attach bool) {
	a := regexformula.MustCompile(".*[ .]y{bad ([a-z]+)}[ .].*|y{bad ([a-z]+)}[ .].*")
	m := vsa.NewMulti(a)
	m.Prepare()
	var rec *vsa.Record
	if attach {
		rec = &vsa.Record{}
	}
	doc := strings.Repeat("one bad word in some plain filler text. ", 1<<12)
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := m.NewSession(rec)
		s.Eval(doc)
		s.Close()
	}
}

func BenchmarkEvalMetricsOff(b *testing.B) { benchEvalMetrics(b, false) }
func BenchmarkEvalMetricsOn(b *testing.B)  { benchEvalMetrics(b, true) }
