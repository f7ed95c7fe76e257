package regexformula

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/alphabet"
)

// Parse parses the textual regex-formula syntax described in the package
// comment. A formula whose tree passes maxTreeNodes fails with
// ErrFormulaTooLarge.
func Parse(src string) (Node, error) {
	p := &parser{src: src}
	n, err := p.alternation()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("regexformula: unexpected %q at offset %d", p.src[p.pos], p.pos)
	}
	if treeSize(n, maxTreeNodes) > maxTreeNodes {
		return nil, fmt.Errorf("%w: over %d nodes once every + is expanded (%q)", ErrFormulaTooLarge, maxTreeNodes, src)
	}
	return n, nil
}

// maxTreeNodes bounds the tree Parse returns, which is what String and
// Compile walk. The source does not bound it: e+ parses to e·e* with e
// shared, so k nested +s double the tree k times while adding k bytes, and
// Compile's time doubles with them (about 1 ms at 767 nodes, 22 ms at
// 12 287). Formulas in use have tens of nodes; 4 096 compile in under
// 10 ms.
const maxTreeNodes = 4096

// ErrFormulaTooLarge reports a formula whose tree exceeds maxTreeNodes.
var ErrFormulaTooLarge = errors.New("regexformula: formula too large")

// treeSize counts n's tree nodes, stopping once the count passes limit, so
// that it costs O(limit) however large the tree.
func treeSize(n Node, limit int) int {
	var kids []Node
	switch t := n.(type) {
	case Cat:
		kids = t.Items
	case Alt:
		kids = t.Items
	case Star:
		kids = []Node{t.Inner}
	case Capture:
		kids = []Node{t.Inner}
	}
	size := 1
	for _, k := range kids {
		if size > limit {
			break
		}
		size += treeSize(k, limit-size)
	}
	return size
}

// MustParse is Parse for statically known formulas; it panics on error.
func MustParse(src string) Node {
	n, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return n
}

// ErrClassEscapeRange reports a class escape (\d, \w, \s) used as an
// endpoint of a range inside [...]: an endpoint must be a single byte.
var ErrClassEscapeRange = errors.New("regexformula: class escape used as a range endpoint")

type parser struct {
	src string
	pos int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("regexformula: %s (offset %d in %q)", fmt.Sprintf(format, args...), p.pos, p.src)
}

func (p *parser) peek() (byte, bool) {
	if p.pos < len(p.src) {
		return p.src[p.pos], true
	}
	return 0, false
}

func (p *parser) alternation() (Node, error) {
	var items []Node
	for {
		n, err := p.concat()
		if err != nil {
			return nil, err
		}
		items = append(items, n)
		if c, ok := p.peek(); ok && c == '|' {
			p.pos++
			continue
		}
		break
	}
	if len(items) == 1 {
		return items[0], nil
	}
	return Alt{items}, nil
}

func (p *parser) concat() (Node, error) {
	var items []Node
	for {
		c, ok := p.peek()
		if !ok || c == '|' || c == ')' || c == '}' {
			break
		}
		n, err := p.factor()
		if err != nil {
			return nil, err
		}
		items = append(items, n)
	}
	switch len(items) {
	case 0:
		return Epsilon{}, nil
	case 1:
		return items[0], nil
	}
	return Cat{items}, nil
}

func (p *parser) factor() (Node, error) {
	n, err := p.atom()
	if err != nil {
		return nil, err
	}
	for {
		c, ok := p.peek()
		if !ok {
			break
		}
		switch c {
		case '*':
			p.pos++
			n = Star{n}
		case '+':
			p.pos++
			n = Cat{[]Node{n, Star{n}}}
		case '?':
			p.pos++
			n = Alt{[]Node{n, Epsilon{}}}
		default:
			return n, nil
		}
	}
	return n, nil
}

func isIdentByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

func (p *parser) atom() (Node, error) {
	c, ok := p.peek()
	if !ok {
		return nil, p.errf("unexpected end of formula")
	}
	switch c {
	case '(':
		p.pos++
		n, err := p.alternation()
		if err != nil {
			return nil, err
		}
		if c, ok := p.peek(); !ok || c != ')' {
			return nil, p.errf("missing ')'")
		}
		p.pos++
		return n, nil
	case '.':
		p.pos++
		return Lit{alphabet.Any}, nil
	case '[':
		return p.charClass()
	case '\\':
		cls, err := p.escape()
		if err != nil {
			return nil, err
		}
		return Lit{cls}, nil
	case '*', '+', '?', '|', ')', '{', '}':
		return nil, p.errf("unexpected %q", c)
	}
	// A maximal identifier immediately followed by '{' is a capture
	// variable; otherwise the run is a sequence of literal bytes.
	if isIdentByte(c) {
		end := p.pos
		for end < len(p.src) && isIdentByte(p.src[end]) {
			end++
		}
		if end < len(p.src) && p.src[end] == '{' {
			name := p.src[p.pos:end]
			p.pos = end + 1
			inner, err := p.alternation()
			if err != nil {
				return nil, err
			}
			if c, ok := p.peek(); !ok || c != '}' {
				return nil, p.errf("missing '}' for capture %s", name)
			}
			p.pos++
			return Capture{name, inner}, nil
		}
	}
	p.pos++
	return Lit{alphabet.Of(c)}, nil
}

func (p *parser) escape() (alphabet.Class, error) {
	p.pos++ // consume backslash
	c, ok := p.peek()
	if !ok {
		return alphabet.Empty, p.errf("dangling backslash")
	}
	p.pos++
	switch c {
	case 'n':
		return alphabet.Of('\n'), nil
	case 't':
		return alphabet.Of('\t'), nil
	case 'r':
		return alphabet.Of('\r'), nil
	case 'd':
		return alphabet.Range('0', '9'), nil
	case 'w':
		cls := alphabet.Range('a', 'z').Union(alphabet.Range('A', 'Z')).Union(alphabet.Range('0', '9'))
		cls.Add('_')
		return cls, nil
	case 's':
		return alphabet.Of(' ', '\t', '\n', '\r', '\f', '\v'), nil
	case 'x':
		if p.pos+2 > len(p.src) {
			return alphabet.Empty, p.errf("truncated \\x escape")
		}
		v, err := strconv.ParseUint(p.src[p.pos:p.pos+2], 16, 8)
		if err != nil {
			return alphabet.Empty, p.errf("bad \\x escape: %v", err)
		}
		p.pos += 2
		return alphabet.Of(byte(v)), nil
	}
	return alphabet.Of(c), nil
}

func (p *parser) charClass() (Node, error) {
	p.pos++ // consume '['
	negate := false
	if c, ok := p.peek(); ok && c == '^' {
		negate = true
		p.pos++
	}
	var cls alphabet.Class
	for {
		c, ok := p.peek()
		if !ok {
			return nil, p.errf("missing ']'")
		}
		if c == ']' {
			p.pos++
			break
		}
		lo, err := p.classMember()
		if err != nil {
			return nil, err
		}
		if n, ok2 := p.peek(); ok2 && n == '-' && p.pos+1 < len(p.src) && p.src[p.pos+1] != ']' {
			p.pos++
			hi, err := p.classMember()
			if err != nil {
				return nil, err
			}
			if lo.Len() != 1 || hi.Len() != 1 {
				return nil, fmt.Errorf("%w (offset %d in %q)", ErrClassEscapeRange, p.pos, p.src)
			}
			a, _ := lo.Min()
			b, _ := hi.Min()
			if b < a {
				return nil, p.errf("inverted range %q-%q", a, b)
			}
			lo = alphabet.Range(a, b)
		}
		cls = cls.Union(lo)
	}
	if negate {
		cls = cls.Complement()
	}
	return Lit{cls}, nil
}

// classMember reads one member of a [...] class: a byte, or an escape —
// a single-byte one (\xHH, \n, \-, ...) or a class escape (\d, \w, \s).
func (p *parser) classMember() (alphabet.Class, error) {
	if c, _ := p.peek(); c != '\\' {
		p.pos++
		return alphabet.Of(c), nil
	}
	return p.escape()
}
