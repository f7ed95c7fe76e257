package regexformula

import (
	"strings"
	"testing"
)

// roundTripDocs are the documents FuzzParse compares relations on: short
// (EvalNaive is exponential in the worst case) and covering identifier
// bytes, class metacharacters and a control byte.
var roundTripDocs = []string{"", "a", "b", "ab", "ba", "aab", "x", "0_", "-", "^", "\x05", " ", "a-b", "{}", "\\"}

// maxFuzzNodes bounds the formulas FuzzParse renders and evaluates with
// EvalNaive, which is exponential in the worst case. Parse's own bound,
// maxTreeNodes, is what keeps Compile fast on everything it accepts.
const maxFuzzNodes = 512

// FuzzParse holds the parser to two properties: Parse and Compile never
// panic on short inputs, and String renders a parsed formula in syntax
// that parses back to the same relation. Renderings holding ∅ or ε are
// not syntax, so they are exempt from the second property.
func FuzzParse(f *testing.F) {
	f.Add(`[\x00-\x1f]`)
	f.Add(`[\^a]`)
	f.Add(`x{[a-c]+}(\.[^.]*)*`)
	f.Add(`a(y{b})|\d\w\s`)
	f.Add(`a(y{b}b)|a(x{a})*`)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 64 {
			return
		}
		n, err := Parse(src)
		if err != nil {
			return
		}
		_, _ = Compile(src) // only a panic would fail here
		if treeSize(n, maxFuzzNodes) > maxFuzzNodes {
			return
		}
		out := n.String()
		if strings.ContainsAny(out, "∅ε") {
			return
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not parse: %v", src, out, err)
		}
		for _, doc := range roundTripDocs {
			if got, want := EvalNaive(back, doc), EvalNaive(n, doc); !got.Equal(want) {
				t.Fatalf("Parse(%q) renders as %q, which on %q gives %v, want %v", src, out, doc, got, want)
			}
		}
	})
}
