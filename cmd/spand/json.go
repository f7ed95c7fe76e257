package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/span"
)

// decoder walks a JSON body once, reading a request's keys from it.
type decoder struct {
	s     string
	i     int
	typed error // the first value of the wrong type: it fails the body once the body is well formed
}

// decodeError is what the decoder panics with: a syntax error, or
// io.ErrUnexpectedEOF where the body ends inside its value.
type decodeError struct{ err error }

// decode reads an inline JSON request body into x — the keys spanner,
// split_spanner, splitter and doc, or a batch's spanners and doc — as
// encoding/json decodes it into a struct: a key matches its field by
// strings.EqualFold and the last duplicate wins, unknown keys and null are
// ignored, invalid UTF-8 becomes U+FFFD, and what follows the first value
// is not read. The doc string, when it has no escapes or invalid UTF-8,
// is a slice of body, which must not change while it is in use; any other
// is unescaped into one copy. The formulas are always copies: the plan
// cache keeps them, and charges them only their own bytes.
// over says the body was cut at its limit: a value the cut leaves
// unfinished is then io.ErrUnexpectedEOF — the 413 encoding/json answers —
// even a scalar, whose end only the byte after it shows.
func (x *extraction) decode(body []byte, over bool) (err error) {
	d := decoder{s: unsafe.String(unsafe.SliceData(body), len(body))}
	defer func() {
		if e := recover(); e != nil {
			de, ok := e.(decodeError)
			if !ok {
				panic(e)
			}
			err = de.err
		}
	}()
	if strings.TrimLeft(d.s, " \t\n\r") == "" && !over {
		return io.EOF
	}
	switch first := d.next(); first {
	case '{':
		d.walk(0, func(k string) {
			switch {
			case strings.EqualFold(k, "doc"):
				d.into(&x.doc, 1)
			case x.batch && strings.EqualFold(k, "spanners"):
				d.list(&x.spanners)
			case x.batch:
				d.value(1)
			case strings.EqualFold(k, "spanner"):
				d.into(&x.req.Spanner, 1)
			case strings.EqualFold(k, "split_spanner"):
				d.into(&x.req.SplitSpanner, 1)
			case strings.EqualFold(k, "splitter"):
				d.into(&x.req.Splitter, 1)
			default:
				d.value(1)
			}
		})
		x.req.Spanner, x.req.SplitSpanner = strings.Clone(x.req.Spanner), strings.Clone(x.req.SplitSpanner)
		x.req.Splitter = strings.Clone(x.req.Splitter)
		for i, f := range x.spanners {
			x.spanners[i] = strings.Clone(f)
		}
	default:
		d.value(0)
		if first != 'n' { // null is the zero request
			d.wrongType(0)
		}
		if over && d.i == len(d.s) && first != '[' {
			return io.ErrUnexpectedEOF
		}
	}
	return d.typed
}

// next skips whitespace and returns the byte at d.i; the body may not end.
func (d *decoder) next() byte {
	for ; d.i < len(d.s); d.i++ {
		if c := d.s[d.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	panic(decodeError{io.ErrUnexpectedEOF})
}

// syntax fails the body at d.i: truncated if d.i is its end, else malformed.
func (d *decoder) syntax() {
	if d.i >= len(d.s) {
		panic(decodeError{io.ErrUnexpectedEOF})
	}
	panic(decodeError{fmt.Errorf("invalid character %q at offset %d", d.s[d.i], d.i)})
}

func (d *decoder) wrongType(at int) {
	if d.typed == nil {
		d.typed = fmt.Errorf("value of the wrong type at offset %d", at)
	}
}

// skip moves past c if it is the byte at d.i.
func (d *decoder) skip(c byte) bool {
	if d.i < len(d.s) && d.s[d.i] == c {
		d.i++
		return true
	}
	return false
}

// walk moves past the object or array at d.i, inside depth others (at
// most encoding/json's 10 000 deep), calling each with every member's key
// ("" in an array) and d.i at its value, which each must move past.
func (d *decoder) walk(depth int, each func(key string)) {
	open := d.s[d.i]
	if depth >= 10000 {
		d.syntax()
	}
	if d.i++; d.next() == open+2 { // '}' or ']'
		d.i++
		return
	}
	for {
		k := ""
		if open == '{' {
			if d.next() != '"' {
				d.syntax()
			}
			if k = d.str(); d.next() != ':' {
				d.syntax()
			}
			d.i++
		}
		d.next()
		each(k)
		if c := d.next(); c == open+2 {
			d.i++
			return
		} else if c != ',' {
			d.syntax()
		}
		d.i++
	}
}

// value moves past the value at d.i, inside depth arrays and objects.
func (d *decoder) value(depth int) {
	switch c := d.s[d.i]; c {
	case '"':
		d.str()
	case '{', '[':
		d.walk(depth, func(string) { d.value(depth + 1) })
	case 't', 'f', 'n':
		lit := [...]string{"true", "false", "null"}[strings.IndexByte("tfn", c)]
		for j := range len(lit) {
			if !d.skip(lit[j]) {
				d.syntax()
			}
		}
	default: // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
		d.skip('-')
		if !d.skip('0') {
			d.digits()
		}
		if d.skip('.') {
			d.digits()
		}
		if d.skip('e') || d.skip('E') {
			_ = d.skip('+') || d.skip('-')
			d.digits()
		}
	}
}

func (d *decoder) digits() {
	start := d.i
	for d.i < len(d.s) && '0' <= d.s[d.i] && d.s[d.i] <= '9' {
		d.i++
	}
	if d.i == start {
		d.syntax()
	}
}

// into reads the value at d.i, inside depth arrays and objects, into f: a
// string replaces it, null leaves it, anything else is the wrong type.
func (d *decoder) into(f *string, depth int) {
	switch at := d.i; d.s[at] {
	case '"':
		*f = d.str()
	case 'n':
		d.value(depth)
	default:
		d.value(depth)
		d.wrongType(at)
	}
}

// list reads the value at d.i into f as encoding/json fills a []string:
// null clears it; an array overwrites its elements in place — where one is
// null, the slot, in the backing array too, keeps what it held — and then
// truncates it, or replaces it with an empty slice.
func (d *decoder) list(f *[]string) {
	if c, at := d.s[d.i], d.i; c != '[' {
		if d.value(1); c == 'n' {
			*f = nil
		} else {
			d.wrongType(at)
		}
		return
	}
	s, n := *f, 0
	d.walk(1, func(string) {
		if n < cap(s) {
			s = s[:max(n+1, len(s))]
		} else {
			s = append(s, "")
		}
		d.into(&s[n], 2)
		n++
	})
	if *f = s[:n]; n == 0 {
		*f = []string{}
	}
}

// plain marks the bytes a JSON string holds as they stand, printable ASCII
// other than '"' and '\\'; unescaped, what an escape stands for.
var (
	plain = func() (t [256]bool) {
		for c := ' '; c < utf8.RuneSelf; c++ {
			t[c] = c != '"' && c != '\\'
		}
		return t
	}()
	unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}
)

// str reads the string at d.i: a slice of the body up to the first byte
// that does not stand as it is — an escape, invalid UTF-8 — and from there
// one copy, sized to the next '"'.
func (d *decoder) str() string {
	s, start := d.s, d.i+1
	var b []byte
	for i := start; ; {
		j := i
		for j < len(s) && plain[s[j]] {
			j++
		}
		if b != nil {
			b = append(b, s[i:j]...)
		}
		switch i = j; {
		case i == len(s) || s[i] < ' ':
			d.i = i
			d.syntax()
		case s[i] == '"':
			if d.i = i + 1; b == nil {
				return s[start:i]
			}
			return unsafe.String(unsafe.SliceData(b), len(b))
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if b == nil {
			if s[i] != '\\' && n > 1 {
				i += n
				continue
			}
			b = append(make([]byte, 0, i-start+max(strings.IndexByte(s[i:], '"'), 0)), s[start:i]...)
		}
		switch {
		case s[i] != '\\':
			b, i = utf8.AppendRune(b, r), i+n // an invalid byte is utf8.RuneError, U+FFFD
		case i+1 < len(s) && unescaped[s[i+1]] != 0:
			b, i = append(b, unescaped[s[i+1]]), i+2
		default:
			if r = u4(s[i:]); r < 0 {
				if d.i = i + 1; d.skip('u') {
					for d.i < len(s) && strings.IndexByte("0123456789abcdefABCDEF", s[d.i]) >= 0 {
						d.i++
					}
				}
				d.syntax()
			}
			if i += 6; utf16.IsSurrogate(r) { // a pair is one rune, any other surrogate U+FFFD
				if r = utf16.DecodeRune(r, u4(s[i:])); r != utf8.RuneError {
					i += 6
				}
			}
			b = utf8.AppendRune(b, r)
		}
	}
}

// u4 is the rune of the \u escape — four hex digits — s starts with, or -1.
func u4(s string) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	r, err := strconv.ParseUint(s[2:6], 16, 16)
	if err != nil {
		return -1
	}
	return rune(r)
}

// The response encoder appends every answer into one buffer, byte for byte
// what encoding/json's Encoder with SetEscapeHTML(false) makes of it.

// key appends an object member's key, a name that needs no escape, after a
// comma unless it opens the object.
func key(dst []byte, k string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return append(append(append(dst, '"'), k...), '"', ':')
}

// appendString appends s as a JSON string: '"', '\\' and control bytes
// escaped, invalid UTF-8 as U+FFFD's escape, and U+2028 and U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst, start := append(dst, '"'), 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if i++; plain[c] {
				continue
			}
			dst = append(dst, s[start:i-1]...)
			if k := strings.IndexByte("\"\\\b\f\n\r\t", c); k >= 0 {
				dst = append(dst, '\\', `"\bfnrt`[k])
			} else {
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 || r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			if r == utf8.RuneError {
				dst = append(dst, `\ufffd`...)
			} else {
				dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
			}
			start = i + n
		}
		i += n
	}
	return append(append(dst, s[start:]...), '"')
}

// appendStrings appends ss as a JSON array, nil as null.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendFloat appends f as encoding/json formats a finite float64.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst = append(dst[:n-2], dst[n-1]) // e-07 to e-7
	}
	return dst
}

// appendHit appends the members cache_hit and plan_compile_ms.
func appendHit(dst []byte, plan *engine.Plan, hit bool) []byte {
	dst = strconv.AppendBool(key(dst, "cache_hit"), hit)
	return appendFloat(key(dst, "plan_compile_ms"), float64(plan.CompileTime.Microseconds())/1000)
}

// appendPlan appends the plan section's members: strategy, the verdicts
// that are known, cache_hit and plan_compile_ms.
func appendPlan(dst []byte, plan *engine.Plan, hit bool) []byte {
	dst = append(appendString(key(dst, "strategy"), plan.Strategy.String()), `,"verdicts":{`...)
	v := plan.Verdicts
	for i, verdict := range []core.Verdict{v.Disjoint, v.SplitCorrect, v.SelfSplittable, v.Local} {
		if verdict != core.VerdictUnknown {
			dst = appendString(key(dst, [...]string{"disjoint", "split_correct", "self_splittable", "local"}[i]), verdict.String())
		}
	}
	if v.Note != "" {
		dst = appendString(key(dst, "note"), v.Note)
	}
	return appendHit(append(dst, '}'), plan, hit)
}

// appendTuples appends a relation's rows as JSON, [[[start,end],…],…] with
// one 1-based [start,end] pair per variable.
func appendTuples(dst []byte, rel *span.Relation) []byte {
	dst = append(slices.Grow(dst, 2+len(rel.Tuples)*(2+18*len(rel.Vars))), '[') // 7-digit offsets fit
	for i, t := range rel.Tuples {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, s := range t {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(dst, '['), int64(s.Start), 10)
			dst = strconv.AppendInt(append(dst, ','), int64(s.End), 10)
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	return append(dst, ']')
}

// appendQueries appends the batch's queries as a JSON array and returns it
// with their summed tuple count. A query is its formula, its variables
// (left out when it has none), its count and its compile error (left out
// when it compiled) — per query by design: one bad formula must not fail
// its siblings — and, with results, its tuples when it found any. Without
// results the array is the pre-evaluation view of the multipart "plan"
// part.
func appendQueries(dst []byte, plan *engine.Plan, spanners []string, results []engine.BatchResult) ([]byte, int) {
	dst, total := append(dst, '['), 0
	for i, src := range spanners {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(key(append(dst, '{'), "spanner"), src)
		if vars := plan.BatchVars(i); len(vars) > 0 {
			dst = appendStrings(key(dst, "vars"), vars)
		}
		count := 0
		if results != nil && results[i].Rel != nil {
			count = results[i].Rel.Len()
		}
		dst, total = strconv.AppendInt(key(dst, "count"), int64(count), 10), total+count
		if err := plan.BatchErr(i); err != nil { // what results[i].Err repeats
			dst = appendString(key(dst, "error"), err.Error())
		}
		if count > 0 {
			dst = appendTuples(key(dst, "tuples"), results[i].Rel)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), total
}
