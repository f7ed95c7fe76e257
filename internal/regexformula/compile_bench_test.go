package regexformula

import (
	"strings"
	"testing"
)

// BenchmarkCompile times Compile — parse, Thompson construction and the
// product with the variable-validity monitor — on two formulas: the
// spanner every plan-churn request compiles (under a fresh variable
// name each time), and the hostile splitter .*x{(a|b)*a(a|b)^k}.* at
// k = 100, whose compiled automaton has one state per (a|b) block.
//
//	go test -run='^$' -bench=Compile -benchmem -cpu 1 ./internal/regexformula/
func BenchmarkCompile(b *testing.B) {
	for _, row := range []struct{ name, src string }{
		{"PlanChurn", `(.*[ .!?\n])?bad (y{[a-z]+})(([^a-z].*)?|)`},
		{"HostileSplitter/k=100", ".*x{(a|b)*a" + strings.Repeat("(a|b)", 100) + "}.*"},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Compile(row.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
