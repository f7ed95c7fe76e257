package regexformula

import (
	"errors"
	"fmt"

	"repro/internal/vsa"
)

// CompileRaw translates a regex formula into a raw VSet-automaton via the
// Thompson construction, with capture subformulas bracketed by variable
// open/close edges. The raw automaton generates exactly the ref-word
// language R(α) of Section 4.1.
func CompileRaw(n Node) *vsa.Raw {
	vars := Vars(n)
	raw := vsa.NewRaw(vars...)
	idx := map[string]int{}
	for i, v := range vars {
		idx[v] = i
	}
	final := raw.AddState(true)
	// build wires the automaton fragment for n between states from and to.
	var build func(n Node, from, to int)
	build = func(n Node, from, to int) {
		switch t := n.(type) {
		case EmptySet:
			// no edges
		case Epsilon:
			raw.AddEpsilonEdge(from, to)
		case Lit:
			raw.AddSymbolEdge(from, t.Class, to)
		case Cat:
			cur := from
			for i, item := range t.Items {
				next := to
				if i < len(t.Items)-1 {
					next = raw.AddState(false)
				}
				build(item, cur, next)
				cur = next
			}
			if len(t.Items) == 0 {
				raw.AddEpsilonEdge(from, to)
			}
		case Alt:
			for _, item := range t.Items {
				build(item, from, to)
			}
		case Star:
			hub := raw.AddState(false)
			raw.AddEpsilonEdge(from, hub)
			raw.AddEpsilonEdge(hub, to)
			inner := raw.AddState(false)
			build(t.Inner, hub, inner)
			raw.AddEpsilonEdge(inner, hub)
		case Capture:
			v := idx[t.Var]
			openEnd := raw.AddState(false)
			closeStart := raw.AddState(false)
			raw.AddOpEdge(from, vsa.Open(v), openEnd)
			build(t.Inner, openEnd, closeStart)
			raw.AddOpEdge(closeStart, vsa.Close(v), to)
		default:
			panic(fmt.Sprintf("regexformula: unknown node %T", n))
		}
	}
	build(n, raw.Start, final)
	return raw
}

// ErrTooManyVariables reports a formula with more variables than an
// automaton supports (vsa.MaxVars).
var ErrTooManyVariables = errors.New("regexformula: too many variables")

// Compile parses and compiles src all the way to a functional extended
// VSet-automaton. A formula with more than vsa.MaxVars variables fails
// with ErrTooManyVariables before any automaton is built.
func Compile(src string) (*vsa.Automaton, error) {
	n, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if vars := Vars(n); len(vars) > vsa.MaxVars {
		return nil, fmt.Errorf("%w: %d variables, at most %d are supported", ErrTooManyVariables, len(vars), vsa.MaxVars)
	}
	return CompileRaw(n).Compile(), nil
}

// MustCompile is Compile for statically known formulas.
func MustCompile(src string) *vsa.Automaton {
	a, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return a
}

// IsFunctional reports whether the formula is functional (Section 4.1):
// every ref-word it generates is valid. Following previous work the paper
// assumes functional formulas; non-functional ones are still usable in
// this library because compilation prunes invalid ref-words, but
// IsFunctional lets callers enforce the stricter contract.
func IsFunctional(n Node) bool {
	return CompileRaw(n).IsFunctional()
}
