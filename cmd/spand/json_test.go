package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
)

// FuzzRequestDecode holds the one-pass decoder and the append encoder to
// encoding/json, the daemon's codec before them.
//
// Decode: body is one request of /v1/extract (and /v1/check) or, with
// batch, of /v1/extract-batch; limit, when it is below the body's length,
// is the JSON body limit it runs into. Both decoders must answer the same
// status — accepted, 413 or 400 — and, accepted, the same value for every
// field.
//
// Encode: s as a JSON string, in an array, and f as a number must read as
// json.Encoder with SetEscapeHTML(false) writes them.
func FuzzRequestDecode(f *testing.F) {
	for _, body := range []string{
		// The handler tests' bodies.
		mustJSON(extractRequest{Spanner: emailFormula, Splitter: sentenceFormula, Doc: testDoc}),
		mustJSON(extractBatchRequest{Spanners: []string{emailFormula, abBatchFormula, "(x{bad"}, Doc: "ab " + testDoc}),
		mustJSON(map[string]any{"spanner": emailFormula, "doc": strings.Repeat("x", 400)}),
		`{"spanner": "abc`, ``, ` `, `{}`, `null`, `[]`, `"doc"`, `12`, `{"spanners":[]}`, `{"spanners":null}`,
		// Keys by case folding, duplicates, nulls and unknown keys.
		`{"SPANNER":"a","Spanner":"b","ſpanner":"c","doc":null,"x":{"y":[1,2.5e-3,true,false,null,"z"]}}`,
		`{"spanners":["a","b","c"],"spanners":["d"],"spanners":[null,null,null,null,null]}`,
		`{"spanners":["a"],"spanners":[]}`, `{"doc":5}`, `{"doc":["x"]}`, `{"spanners":"x"}`, `{"spanners":[1]}`,
		// Escapes, surrogates and invalid UTF-8.
		`{"doc":"a\nb\"c\\d\/e\bf\fg\rh\tié 😀\ud800x\udc00\ud800A"}`,
		"{\"doc\":\"\xff\xfe\xed\xa0\x80 é\"}", `{"doc":"\u12`, `{"doc":"\x"}`, "{\"doc\":\"\x01\"}",
		// Trailing data, malformed values, depth.
		`{"doc":"a"} trailing`, `{"doc":"a",}`, `{"doc" "a"}`, `{"doc":01}`, `{"doc":-}`, `{"x":[1,]}`,
		`{"x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`, `nulls`, `tru`, ` 1 `,
	} {
		f.Add([]byte(body), uint16(0), false, "", 0.0)
		f.Add([]byte(body), uint16(len(body)/2+1), true, "\x00\x1f\x7f<&>\u2028\u2029\xff\"\\", 1.5e-7)
	}
	f.Add([]byte(`{"doc":"é"}`), uint16(9), false, "\xed\xa0\xbd", 1e21)
	f.Fuzz(func(t *testing.T, body []byte, limit uint16, batch bool, s string, fl float64) {
		lim := int64(len(body))
		if limit > 0 && int(limit) < len(body) {
			lim = int64(limit)
		}
		var want, wantErr = any(&extractRequest{}), error(nil)
		if batch {
			want = &extractBatchRequest{}
		}
		wantErr = json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), lim)).Decode(want)
		x := extraction{batch: batch}
		over := int64(len(body)) > lim
		gotErr := x.decode(slices.Clone(body[:lim]), over)
		if status(wantErr, false) != status(gotErr, over) {
			t.Fatalf("body %q (limit %d, batch %v): encoding/json %v (%d), decode %v (%d)",
				body, lim, batch, wantErr, status(wantErr, false), gotErr, status(gotErr, over))
		}
		if wantErr == nil {
			if r, ok := want.(*extractRequest); ok {
				got := extractRequest{x.req.Spanner, x.req.SplitSpanner, x.req.Splitter, x.doc}
				if got != *r {
					t.Fatalf("body %q: decoded %+v, encoding/json %+v", body, got, *r)
				}
			} else if r := want.(*extractBatchRequest); x.doc != r.Doc || !slices.Equal(x.spanners, r.Spanners) || (x.spanners == nil) != (r.Spanners == nil) {
				t.Fatalf("body %q: decoded %q %#v, encoding/json %q %#v", body, x.doc, x.spanners, r.Doc, r.Spanners)
			}
		}

		if got, want := string(appendString(nil, s))+"\n", encoded(s); got != want {
			t.Fatalf("string %q: appendString %s, encoding/json %s", s, got, want)
		}
		if got, want := string(appendStrings(nil, []string{s, "y"}))+"\n", encoded([]string{s, "y"}); got != want {
			t.Fatalf("strings %q: appendStrings %s, encoding/json %s", s, got, want)
		}
		if !math.IsNaN(fl) && !math.IsInf(fl, 0) {
			if got, want := string(appendFloat(nil, fl))+"\n", encoded(fl); got != want {
				t.Fatalf("float %v: appendFloat %s, encoding/json %s", fl, got, want)
			}
		}
	})
}

// TestDecodedFormulasOutliveTheBody: the plan cache keeps a plan's
// formulas for as long as the plan, so they may not share the request
// body's buffer (the whole body, inline document and all, would stay
// alive with them): overwriting the body after decode leaves the decoded
// formulas and the cached plans' formulas as they were.
func TestDecodedFormulasOutliveTheBody(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1})
	ctx := context.Background()
	body := []byte(mustJSON(extractRequest{Spanner: emailFormula, Splitter: sentenceFormula, SplitSpanner: emailFormula, Doc: testDoc}))
	x := extraction{}
	if err := x.decode(body, false); err != nil {
		t.Fatal(err)
	}
	plan, _, err := eng.Plan(ctx, x.req)
	if err != nil {
		t.Fatal(err)
	}
	batchBody := []byte(mustJSON(extractBatchRequest{Spanners: []string{emailFormula, abBatchFormula}, Doc: testDoc}))
	b := extraction{batch: true}
	if err := b.decode(batchBody, false); err != nil {
		t.Fatal(err)
	}
	batch, _, err := eng.PlanBatch(ctx, engine.BatchRequest{Spanners: b.spanners})
	if err != nil {
		t.Fatal(err)
	}
	for _, buf := range [][]byte{body, batchBody} {
		for i := range buf {
			buf[i] = 'X'
		}
	}
	want := engine.Request{Spanner: emailFormula, Splitter: sentenceFormula, SplitSpanner: emailFormula}
	if x.req != want || plan.Req != want {
		t.Fatalf("after the body changed: decoded %+v, cached plan %+v; want %+v", x.req, plan.Req, want)
	}
	if !slices.Equal(b.spanners, []string{emailFormula, abBatchFormula}) {
		t.Fatalf("after the body changed: batch formulas %q", b.spanners)
	}
	if again, hit, _ := eng.PlanBatch(ctx, engine.BatchRequest{Spanners: []string{emailFormula, abBatchFormula}}); !hit || again != batch {
		t.Fatalf("the batch plan is no longer the cached one for its formulas (hit %v)", hit)
	}
}

// status is the answer a decode error gets: 0 for none, 413 for a body
// over its limit, else 400.
func status(err error, over bool) int {
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &tooBig), over && err == io.ErrUnexpectedEOF:
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
