package regexformula

import (
	"strings"
	"testing"

	"repro/internal/vsa"
)

// roundTripDocs are the documents FuzzParse compares relations on: short
// (EvalNaive is exponential in the worst case) and covering identifier
// bytes, class metacharacters and a control byte.
var roundTripDocs = []string{"", "a", "b", "ab", "ba", "aab", "x", "0_", "-", "^", "\x05", " ", "a-b", "{}", "\\"}

// maxFuzzNodes bounds the formulas FuzzParse renders and evaluates with
// EvalNaive, which is exponential in the worst case. Parse's own bound,
// maxTreeNodes, is what keeps Compile fast on everything it accepts.
const maxFuzzNodes = 512

// FuzzParse holds the parser and compiler to three properties: Parse
// and Compile never panic on short inputs; Compile builds, byte for byte,
// the automaton of compileRef, and IsFunctional answers as functionalRef
// does — which pins the compiled state numbering; and String renders a
// parsed formula of up to 64 bytes in syntax that parses back to the same
// relation. Renderings holding ∅ or ε are not syntax, so they are exempt
// from the last property. The benchmark's sentiment and sentence formulas
// are seeds, hence the 128-byte bound on the first two.
func FuzzParse(f *testing.F) {
	f.Add(`[\x00-\x1f]`)
	f.Add(`[\^a]`)
	f.Add(`x{[a-c]+}(\.[^.]*)*`)
	f.Add(`a(y{b})|\d\w\s`)
	f.Add(`a(y{b}b)|a(x{a})*`)
	f.Add(`(.*[ .!?\n])?bad (y{[a-z]+})(([^a-z].*)?|)`)
	f.Add(`(x{[^.!?\n]*})([.!?\n][^.!?\n]*)*|[^.!?\n]*([.!?\n][^.!?\n]*)*[.!?\n](x{[^.!?\n]*})([.!?\n][^.!?\n]*)*`)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 128 {
			return
		}
		n, err := Parse(src)
		if err != nil {
			return
		}
		if a, err := Compile(src); err == nil {
			raw := CompileRaw(n)
			if got, want := a.String(), compileRef(raw).String(); got != want {
				t.Fatalf("Compile(%q) =\n%s\nthe reference compiler builds\n%s", src, got, want)
			}
			if got, want := raw.IsFunctional(), functionalRef(raw); got != want {
				t.Fatalf("IsFunctional(%q) = %v, the reference says %v", src, got, want)
			}
		}
		if len(src) > 64 || treeSize(n, maxFuzzNodes) > maxFuzzNodes {
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

// compileRef is vsa.Raw.Compile as it was before it moved onto
// automata.Explorer: the product with the variable-validity monitor,
// keyed by Go maps, numbering output states breadth-first in first-seen
// order. It is kept here, in a test file only, as FuzzParse's oracle for
// the compiled automaton, state numbering included.
func compileRef(r *vsa.Raw) *vsa.Automaton {
	out := vsa.NewAutomaton(r.Vars...)
	type key struct {
		q  int
		st vsa.Status
	}
	id := map[key]int{{r.Start, 0}: 0}
	queue := []key{{r.Start, 0}}
	intern := func(k key) int {
		if i, ok := id[k]; ok {
			return i
		}
		i := out.AddState()
		id[k] = i
		queue = append(queue, k)
		return i
	}
	allClosed := vsa.AllClosed(len(r.Vars))
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		from := id[k]
		// Closure over ε/op edges: all (state, status) pairs reachable
		// from k without consuming input.
		seen := map[key]bool{k: true}
		stack := []key{k}
		var closure []key
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			closure = append(closure, n)
			for _, e := range r.Adj[n.q] {
				switch e.Kind {
				case vsa.LabelEpsilon:
					nn := key{e.To, n.st}
					if !seen[nn] {
						seen[nn] = true
						stack = append(stack, nn)
					}
				case vsa.LabelOp:
					if st, ok := n.st.Apply(e.Op); ok {
						nn := key{e.To, st}
						if !seen[nn] {
							seen[nn] = true
							stack = append(stack, nn)
						}
					}
				}
			}
		}
		for _, n := range closure {
			ops := k.st.Diff(n.st, len(r.Vars))
			if r.Final[n.q] && n.st == allClosed {
				out.AddFinal(from, ops)
			}
			for _, e := range r.Adj[n.q] {
				if e.Kind != vsa.LabelSymbol || e.Class.IsEmpty() {
					continue
				}
				out.AddEdge(from, ops, e.Class, intern(key{e.To, n.st}))
			}
		}
	}
	return out
}

// functionalRef is vsa.Raw.IsFunctional as it was before its
// per-variable search moved onto automata.Explorer: a depth-first search
// over (state, status of v) keyed by a Go map, v's status 0 unseen,
// 1 open, 2 closed, 3 misused.
func functionalRef(r *vsa.Raw) bool {
	type node struct{ q, st int }
	for v := range r.Vars {
		seen := map[node]bool{{r.Start, 0}: true}
		stack := []node{{r.Start, 0}}
		open, close := vsa.Open(v), vsa.Close(v)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if r.Final[n.q] && n.st != 2 {
				return false
			}
			for _, e := range r.Adj[n.q] {
				st := n.st
				if e.Kind == vsa.LabelOp && e.Op == open {
					if st == 0 {
						st = 1
					} else {
						st = 3
					}
				} else if e.Kind == vsa.LabelOp && e.Op == close {
					if st == 1 {
						st = 2
					} else {
						st = 3
					}
				}
				if e.Kind == vsa.LabelSymbol && e.Class.IsEmpty() {
					continue
				}
				if nn := (node{e.To, st}); !seen[nn] {
					seen[nn] = true
					stack = append(stack, nn)
				}
			}
		}
	}
	return true
}
