// Package regexformula implements the regex formulas of Section 4.1:
// regular expressions extended with capture variables x{...}. Formulas are
// parsed from a compact textual syntax, compiled to VSet-automata (package
// vsa), and can also be evaluated directly by a naive recursive matcher
// that serves as an executable reference semantics in tests.
//
// Syntax accepted by Parse:
//
//	alternation   e|f           (the paper writes e ∨ f or e + f)
//	concatenation ef            (juxtaposition; a space is a literal space)
//	repetition    e*  e+  e?
//	grouping      (e)
//	capture       x{e}          (a maximal identifier before '{' names the variable;
//	                             write a(y{e}) to concatenate a literal with a capture,
//	                             since ay{e} is a capture named "ay")
//	any byte      .             (the paper's Σ)
//	classes       [abc] [a-z] [\x00-\x1f] [^x]  \d \w \s
//	escapes       \n \t \r \xHH and \c for any punctuation c
//
// Following the paper (Section 4.1), formulas are interpreted under the
// Ref(α) semantics: ref-words that open or close some variable other than
// exactly once are discarded. IsFunctional reports whether the formula is
// functional (every ref-word valid), the standing assumption of the paper.
package regexformula

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/alphabet"
	"repro/internal/span"
)

// Node is a regex-formula AST node.
type Node interface {
	fmt.Stringer
	isNode()
}

// EmptySet is ∅, the formula matching nothing.
type EmptySet struct{}

// Epsilon matches the empty string.
type Epsilon struct{}

// Lit matches one byte from Class.
type Lit struct{ Class alphabet.Class }

// Cat is the concatenation of its factors (empty list = ε).
type Cat struct{ Items []Node }

// Alt is the disjunction of its branches.
type Alt struct{ Items []Node }

// Star is Kleene iteration.
type Star struct{ Inner Node }

// Capture binds the span matched by Inner to variable Var.
type Capture struct {
	Var   string
	Inner Node
}

func (EmptySet) isNode() {}
func (Epsilon) isNode()  {}
func (Lit) isNode()      {}
func (Cat) isNode()      {}
func (Alt) isNode()      {}
func (Star) isNode()     {}
func (Capture) isNode()  {}

func (EmptySet) String() string { return "∅" }
func (Epsilon) String() string  { return "ε" }

func (l Lit) String() string {
	if l.Class == alphabet.Any {
		return "."
	}
	bs := l.Class.Bytes()
	if len(bs) == 1 {
		return escapeByte(bs[0])
	}
	return l.Class.String()
}

// escapeByte renders one literal byte in re-parseable syntax.
func escapeByte(b byte) string {
	switch b {
	case '|', '*', '+', '?', '(', ')', '{', '}', '[', ']', '\\', '.', '^', '-':
		return "\\" + string(b)
	case '\n':
		return `\n`
	case '\t':
		return `\t`
	case '\r':
		return `\r`
	}
	if b >= 0x20 && b <= 0x7e {
		return string(b)
	}
	return fmt.Sprintf(`\x%02x`, b)
}

func (c Cat) String() string {
	if len(c.Items) == 0 {
		return "ε"
	}
	parts := make([]string, len(c.Items))
	for i, n := range c.Items {
		parts[i] = n.String()
		_, alt := n.(Alt)
		// After an identifier byte, a part that opens with a capture would
		// have its variable name absorb that byte.
		if alt || i > 0 && isIdentByte(parts[i-1][len(parts[i-1])-1]) && opensCapture(parts[i]) {
			parts[i] = "(" + parts[i] + ")"
		}
	}
	return strings.Join(parts, "")
}

// opensCapture reports whether a rendering starts with a capture: an
// identifier directly followed by '{' (a literal brace is escaped).
func opensCapture(s string) bool {
	i := 0
	for i < len(s) && isIdentByte(s[i]) {
		i++
	}
	return i > 0 && i < len(s) && s[i] == '{'
}

func (a Alt) String() string {
	parts := make([]string, len(a.Items))
	for i, n := range a.Items {
		parts[i] = n.String()
	}
	return strings.Join(parts, "|")
}

func (s Star) String() string {
	switch s.Inner.(type) {
	case Alt, Cat:
		return "(" + s.Inner.String() + ")*"
	}
	return s.Inner.String() + "*"
}

func (c Capture) String() string { return c.Var + "{" + c.Inner.String() + "}" }

// Vars returns the capture variables of the formula in first-occurrence
// order.
func Vars(n Node) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(Node)
	walk = func(n Node) {
		switch t := n.(type) {
		case Cat:
			for _, i := range t.Items {
				walk(i)
			}
		case Alt:
			for _, i := range t.Items {
				walk(i)
			}
		case Star:
			walk(t.Inner)
		case Capture:
			if !seen[t.Var] {
				seen[t.Var] = true
				out = append(out, t.Var)
			}
			walk(t.Inner)
		}
	}
	walk(n)
	return out
}

// outcome is one way a subformula can match: it consumed input up to end
// (0-based byte offset) and produced the given variable bindings.
type outcome struct {
	end   int
	binds map[string]span.Span
}

func bindKey(m map[string]span.Span) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d:%d;", k, m[k].Start, m[k].End)
	}
	return b.String()
}

func mergeBinds(a, b map[string]span.Span) (map[string]span.Span, bool) {
	out := make(map[string]span.Span, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if _, dup := out[k]; dup {
			// The same variable opened twice: the ref-word is invalid and
			// this outcome is discarded by the Ref(α) semantics.
			return nil, false
		}
		out[k] = v
	}
	return out, true
}

// matches enumerates the distinct outcomes of n on doc starting at byte
// offset start.
func matches(n Node, doc string, start int) []outcome {
	switch t := n.(type) {
	case EmptySet:
		return nil
	case Epsilon:
		return []outcome{{start, nil}}
	case Lit:
		if start < len(doc) && t.Class.Has(doc[start]) {
			return []outcome{{start + 1, nil}}
		}
		return nil
	case Capture:
		var out []outcome
		for _, o := range matches(t.Inner, doc, start) {
			b, ok := mergeBinds(o.binds, map[string]span.Span{
				t.Var: span.FromByteOffsets(start, o.end),
			})
			if ok {
				out = append(out, outcome{o.end, b})
			}
		}
		return out
	case Alt:
		var out []outcome
		seen := map[string]bool{}
		for _, i := range t.Items {
			for _, o := range matches(i, doc, start) {
				k := fmt.Sprintf("%d|%s", o.end, bindKey(o.binds))
				if !seen[k] {
					seen[k] = true
					out = append(out, o)
				}
			}
		}
		return out
	case Cat:
		outs := []outcome{{start, nil}}
		for _, item := range t.Items {
			var next []outcome
			seen := map[string]bool{}
			for _, o := range outs {
				for _, o2 := range matches(item, doc, o.end) {
					b, ok := mergeBinds(o.binds, o2.binds)
					if !ok {
						continue
					}
					k := fmt.Sprintf("%d|%s", o2.end, bindKey(b))
					if !seen[k] {
						seen[k] = true
						next = append(next, outcome{o2.end, b})
					}
				}
			}
			outs = next
			if len(outs) == 0 {
				break
			}
		}
		return outs
	case Star:
		seen := map[string]bool{}
		frontier := []outcome{{start, nil}}
		all := []outcome{{start, nil}}
		seen[fmt.Sprintf("%d|", start)] = true
		for len(frontier) > 0 {
			var next []outcome
			for _, o := range frontier {
				for _, o2 := range matches(t.Inner, doc, o.end) {
					b, ok := mergeBinds(o.binds, o2.binds)
					if !ok {
						continue
					}
					// Disallow ε-iterations: a starred subformula matching ε
					// adds nothing new and would loop forever.
					if o2.end == o.end && len(o2.binds) == 0 {
						continue
					}
					k := fmt.Sprintf("%d|%s", o2.end, bindKey(b))
					if !seen[k] {
						seen[k] = true
						no := outcome{o2.end, b}
						next = append(next, no)
						all = append(all, no)
					}
				}
			}
			frontier = next
		}
		return all
	}
	panic(fmt.Sprintf("regexformula: unknown node %T", n))
}

// EvalNaive evaluates the formula on doc by direct recursion over the AST,
// implementing the Ref(α) semantics of Section 4.1 without any automata.
// It is exponential on pathological inputs and exists as the executable
// reference that the automata pipeline is tested against.
func EvalNaive(n Node, doc string) *span.Relation {
	vars := Vars(n)
	rel := span.NewRelation(vars...)
	for _, o := range matches(n, doc, 0) {
		if o.end != len(doc) {
			continue
		}
		// Only valid ref-words count: every variable bound exactly once.
		if len(o.binds) != len(vars) {
			continue
		}
		t := make(span.Tuple, len(vars))
		for i, v := range vars {
			t[i] = o.binds[v]
		}
		rel.Add(t)
	}
	rel.Dedupe()
	return rel
}
