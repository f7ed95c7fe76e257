package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// goldenCounters are the /v1/stats members whose values the golden
// script fixes: everything but the clocks.
var goldenCounters = []string{
	"documents", "whole_docs", "chunked_docs", "streamed_docs", "bytes", "segments",
	"workers", "request_workers", "batch",
	"plan_cache.hits", "plan_cache.misses", "plan_cache.coalesced", "plan_cache.splitter_hits",
	"plan_cache.evictions", "plan_cache.size",
	"executor.runs", "executor.chunks", "executor.segments", "executor.eval_mb",
	"segmenter.sync_fallbacks",
	"localization.instrumented_evals", "localization.empty_docs", "localization.fallbacks",
	"stages.plan.count", "stages.segment.count", "stages.eval.count", "stages.merge.count",
	"stages.decide.count", "stages.localize.count", "stages.sim.count",
	"endpoints./v1/extract.count", "endpoints./v1/extract-batch.count",
}

// TestStatsAndMetricsGolden pins both metric surfaces against testdata:
// a fixed script — a cold and a warm plan, documents on the whole, split
// and chunked routes, one the prefilter refuses, a batch and one raw
// streamed body — goes through
// the daemon on an engine with fixed workers, and then the key set of
// /v1/stats, its counters, and every /metrics family with its HELP and
// TYPE lines and the values of its untimed series must match the golden
// files. Timings are checked for presence only. go test -run Golden
// -update rewrites the files.
func TestStatsAndMetricsGolden(t *testing.T) {
	h := newServer(engine.New(engine.Config{Workers: 4, Batch: 2}))
	do := func(method, target, ctype string, body []byte) []byte {
		t.Helper()
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	extract := func(spanner, splitter, splitSpanner, doc, execution string) {
		t.Helper()
		body, _ := json.Marshal(map[string]string{
			"spanner": spanner, "splitter": splitter, "split_spanner": splitSpanner, "doc": doc})
		var got extractResult
		if err := json.Unmarshal(do("POST", "/v1/extract", "application/json", body), &got); err != nil {
			t.Fatal(err)
		}
		if got.Execution != execution {
			t.Fatalf("%d-byte document ran %q, want %q", len(doc), got.Execution, execution)
		}
	}
	wholeDoc := strings.Repeat(testDoc+" ", 120)                    // ≥ vsa.MetricsMinDocBytes, < the split break-even
	extract(emailFormula, sentenceFormula, "", splitDoc, "chunked") // cold plan
	extract(emailFormula, sentenceFormula, "", splitDoc, "chunked") // warm plan
	extract(emailFormula, sentenceFormula, "", wholeDoc, "whole")
	extract(emailFormula, "", "", wholeDoc, "whole")
	extract(emailFormula, "", "", strings.Repeat("no address here. ", 300), "whole") // refused by the factor gate
	extract(`.*(y{})\..*`, `.*(x{})\..*`, `y{}`, splitDoc, "split")
	batch, _ := json.Marshal(map[string]any{
		"spanners": []string{emailFormula, abBatchFormula, `(.*[^a-z])?(z{[a-z]+})(\..*)?`}, "doc": wholeDoc})
	do("POST", "/v1/extract-batch", "application/json", batch)
	q := "/v1/extract?spanner=" + url.QueryEscape(emailFormula) + "&splitter=" + url.QueryEscape(sentenceFormula)
	var got extractResult
	if err := json.Unmarshal(do("POST", q, "application/octet-stream", []byte(splitDoc)), &got); err != nil {
		t.Fatal(err)
	}
	if got.Ingest != "streamed" || got.Execution != "chunked" {
		t.Fatalf("raw body: ingest %q, execution %q; want streamed and chunked", got.Ingest, got.Execution)
	}

	var stats map[string]any
	if err := json.Unmarshal(do("GET", "/v1/stats", "", nil), &stats); err != nil {
		t.Fatal(err)
	}
	flat := map[string]any{}
	flatten("", stats, flat)
	var lines []string
	for k := range flat {
		lines = append(lines, "key "+k)
	}
	slices.Sort(lines)
	for _, k := range goldenCounters {
		v, ok := flat[k]
		if !ok {
			t.Fatalf("/v1/stats has no %s", k)
		}
		lines = append(lines, fmt.Sprintf("%s = %v", k, v))
	}
	checkGolden(t, "stats.golden", strings.Join(lines, "\n")+"\n")

	checkGolden(t, "metrics.golden", untimed(t, string(do("GET", "/metrics", "", nil))))
}

// flatten records every leaf of a decoded JSON object under its dotted
// path. The optional latency percentiles of a stage or an endpoint are
// left out: whether a log₂ histogram reads a non-zero quantile depends on
// the clock.
func flatten(prefix string, v any, out map[string]any) {
	obj, ok := v.(map[string]any)
	if !ok {
		out[prefix] = v
		return
	}
	for k, c := range obj {
		if strings.HasSuffix(k, "_ms") && strings.HasPrefix(k, "p") {
			continue
		}
		p := k
		if prefix != "" {
			p = prefix + "." + k
		}
		flatten(p, c, out)
	}
}

// untimed is the /metrics page with what the clock decides taken out: the
// finite buckets of every histogram are dropped, and the value of a timed
// series (uptime, *_seconds counters, histogram sums) is replaced by
// "timed" once the page shows it is a number.
func untimed(t *testing.T, page string) string {
	t.Helper()
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(page, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			b.WriteString(line + "\n")
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		name, value := line[:i], line[i+1:]
		if strings.Contains(name, "_bucket{") && !strings.Contains(name, `le="+Inf"`) && strings.Contains(name, "_seconds") {
			continue
		}
		if strings.Contains(name, "uptime") || (strings.Contains(name, "_seconds") && !strings.Contains(name, "_bucket{") && !strings.Contains(name, "_count")) {
			if _, err := fmt.Sscan(value, new(float64)); err != nil {
				t.Fatalf("%s: value %q is not a number", name, value)
			}
			value = "timed"
		}
		b.WriteString(name + " " + value + "\n")
	}
	return b.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gl), len(wl)) {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s differs at line %d:\n got  %q\n want %q", path, i+1, g, w)
			}
		}
	}
}
