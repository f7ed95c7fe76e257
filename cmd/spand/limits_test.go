package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestJSONBodyLimit: a JSON body is accepted up to the limit, answered 413
// naming the limit one byte past it — not cut off there and then called
// malformed — and a body that is malformed without being large is still a
// 400. All three JSON endpoints decode through the one helper; the limit is
// a few hundred bytes here so the 64 MiB of production need not be sent.
func TestJSONBodyLimit(t *testing.T) {
	const limit = 512
	ts := httptest.NewServer(newServerWith(engine.New(engine.Config{Workers: 2}), serverConfig{maxJSON: limit}))
	defer ts.Close()
	for _, ep := range []struct {
		path string
		body func(doc string) any
	}{
		{"/v1/extract", func(doc string) any { return map[string]any{"spanner": emailFormula, "doc": doc} }},
		{"/v1/extract-batch", func(doc string) any { return map[string]any{"spanners": []string{emailFormula}, "doc": doc} }},
		{"/v1/check", func(doc string) any { return map[string]any{"spanner": emailFormula, "doc": doc} }},
	} {
		sized := func(n int) string { // a well-formed body of exactly n bytes
			empty, _ := json.Marshal(ep.body(""))
			b, _ := json.Marshal(ep.body(strings.Repeat("x", n-len(empty))))
			return string(b)
		}
		for _, c := range []struct {
			name, body string
			status     int
			msg        string
		}{
			{"at the limit", sized(limit), http.StatusOK, ""},
			{"one byte over", sized(limit + 1), http.StatusRequestEntityTooLarge, "exceeds 512 bytes"},
			{"malformed but small", `{"spanner": "abc`, http.StatusBadRequest, "bad JSON body"},
		} {
			resp, err := http.Post(ts.URL+ep.path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatalf("%s, %s: %v", ep.path, c.name, err)
			}
			answer, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.status || !strings.Contains(string(answer), c.msg) {
				t.Fatalf("%s, %s (%d bytes): status %d %s, want %d mentioning %q",
					ep.path, c.name, len(c.body), resp.StatusCode, answer, c.status, c.msg)
			}
		}
	}
}

// TestDaemonDependencyCone pins the repro packages the daemon links: the
// serving path's cone. The paper-coverage packages (annotated, refword,
// blackbox, filterx, reason, algebra), the formula catalog and corpora
// (library, corpus) and the load generator entering it — or a package
// leaving it — is a decision to make here, in review.
func TestDaemonDependencyCone(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("the go tool is not on PATH")
	}
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	var got []string
	for _, pkg := range strings.Fields(string(out)) {
		if pkg == "repro" || strings.HasPrefix(pkg, "repro/") {
			got = append(got, pkg)
		}
	}
	want := []string{"repro/cmd/spand"}
	for _, name := range []string{"obs", "admission", "alphabet", "automata", "lazydfa", "span", "vsa", "core", "parallel", "regexformula", "engine"} {
		want = append(want, "repro/internal/"+name)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("spand links\n  %v\nwant exactly\n  %v", got, want)
	}
}

// TestEvaluationCoreLinksNoObs: the evaluation layers count into the
// plain record their caller hands them (vsa.Record, parallel.Record) and
// export nothing themselves, so none of them links the metrics package.
func TestEvaluationCoreLinksNoObs(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("the go tool is not on PATH")
	}
	for _, pkg := range []string{"vsa", "parallel", "core", "lazydfa", "automata"} {
		out, err := exec.Command("go", "list", "-deps", "repro/internal/"+pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", pkg, err)
		}
		if slices.Contains(strings.Fields(string(out)), "repro/internal/obs") {
			t.Errorf("repro/internal/%s links repro/internal/obs", pkg)
		}
	}
}
