package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// smokeScale shrinks documents and pools so that every workload's timed
// and traced run fits a unit-test budget.
const smokeScale = 0.05

func smokeHarness(t *testing.T, out *bytes.Buffer) *harness {
	t.Helper()
	h := &harness{seed: 1, window: 300 * time.Millisecond, outDir: t.TempDir(),
		ws: workloads(smokeScale), out: out}
	if err := h.build(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		killAllSpands()
		if n := liveSpands(); n != 0 {
			t.Errorf("%d spand process(es) outlived the test", n)
		}
	})
	return h
}

// lastResult parses the result object on the last line of a driver run.
func lastResult(t *testing.T, out *bytes.Buffer) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line is not a result object: %v\n%s", err, out.String())
	}
	return r
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestDeclarationMatches keeps BENCHMARK.json and the harness's tables
// in step: same workloads, same metrics, same units, directions, bounds.
func TestDeclarationMatches(t *testing.T) {
	f := readBenchmarkFile(t)
	ws := workloads(1)
	if len(f.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the harness %q / %q",
				i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, got []declared, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the harness's %v", kind, d.name, d.bound)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd, true)
	same("per_layer", f.PerLayer, perLayer, false)
}

// TestSmoke runs every workload once as the driver does, untraced and
// traced, on shrunken pools: every declared metric is printed and no
// other, nothing fails, self times are non-negative, the ledger closes,
// count metrics repeat exactly for the seed, and no spand is left over.
func TestSmoke(t *testing.T) {
	var out bytes.Buffer
	h := smokeHarness(t, &out)
	names := func(defs []metricDef) map[string]string {
		m := map[string]string{}
		for _, d := range defs {
			m[d.name] = d.unit
		}
		return m
	}
	for _, w := range h.ws {
		for _, traced := range []bool{false, true} {
			out.Reset()
			if err := h.driverRun(w.name, traced); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			r := lastResult(t, &out)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, r.Correct, r.Attempted, r.Failed)
			}
			want := names(endToEnd)
			if traced {
				want = names(perLayer)
			}
			got := map[string]string{}
			for name, v := range r.Metrics {
				got[name] = v.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: printed metrics differ from the declared ones:\n got %v\nwant %v", w.name, traced, got, want)
			}
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(line, "{") {
					continue
				}
				for name := range want {
					if strings.Contains(line, " "+name+" ") {
						delete(want, name)
					}
				}
			}
			if len(want) > 0 {
				t.Errorf("%s traced=%v: metrics not printed by name: %v", w.name, traced, want)
			}
		}

		// The traced run once more, for what only its internals show.
		a, err := runTraced(h.bin, h.outDir, w, h.seed, h.window)
		if err != nil {
			t.Fatal(err)
		}
		for i, self := range a.trace.selfTimes() {
			if self < 0 {
				t.Errorf("%s: span %d (%s) has negative self time %v", w.name, i, a.trace.spans[i].name, self)
			}
		}
		if gap := a.metrics["bench.ledger_gap_share"]; gap > 0.15 {
			t.Errorf("%s: ledger does not close: gap %.1f%% of the request", w.name, 100*gap)
		}
		if _, err := os.Stat(a.tracePath); err != nil {
			t.Errorf("%s: trace file: %v", w.name, err)
		}
		r := lastResult(t, &out)
		for _, name := range countMetrics {
			if a.metrics[name] != r.Metrics[name].Value {
				t.Errorf("%s: count metric %s did not repeat for the same seed: %v then %v",
					w.name, name, r.Metrics[name].Value, a.metrics[name])
			}
		}
	}
}

// TestDeterminism: the same seed generates byte-identical requests and
// oracles; another seed generates other documents and other plan names.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads(smokeScale) {
		a, err := buildPool(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildPool(w, 1)
		c, _ := buildPool(w, 2)
		for i := 0; i < 3*len(a.reqs); i++ {
			ra, rb, rc := a.request(i), b.request(i), c.request(i)
			if !bytes.Equal(ra.body, rb.body) || ra.path != rb.path || !reflect.DeepEqual(ra.want, rb.want) {
				t.Errorf("%s: request %d differs between two pools of seed 1", w.name, i)
			}
			if bytes.Equal(ra.body, rc.body) {
				t.Errorf("%s: request %d is the same for seeds 1 and 2", w.name, i)
			}
		}
		if w.churn {
			seen := map[string]bool{}
			for i := 0; i < 500; i++ {
				body := string(a.request(i).body)
				if seen[body] {
					t.Fatalf("%s: plan %d repeats an earlier one", w.name, i)
				}
				seen[body] = true
			}
			if !strings.Contains(string(a.request(0).body), "y1_") || !strings.Contains(string(c.request(0).body), "y2_") {
				t.Errorf("%s: plan names do not carry the seed", w.name)
			}
		}
	}
}

// TestChurnBodyAnySeed: the renamed capture is the only part of a churn
// body that changes, however many digits the seed has (the driver's
// seeds are not small).
func TestChurnBodyAnySeed(t *testing.T) {
	w := workloadByName(workloads(smokeScale), "plan-churn")
	for _, seed := range []uint64{0, 7, 123456789, math.MaxUint64} {
		p, err := buildPool(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, 1, 12345} {
			var got struct{ Spanner, Splitter, Doc string }
			if err := json.Unmarshal(p.request(i).body, &got); err != nil {
				t.Fatalf("seed %d request %d: %v", seed, i, err)
			}
			name := fmt.Sprintf("y%d_%d", seed, len(p.reqs)+i)
			if got.Spanner != sentimentPre+name+sentimentPost || got.Splitter != sentenceSrc || got.Doc != p.docs[0] {
				t.Errorf("seed %d request %d: body is not the renamed formula over the pool's document: %+v", seed, i, got)
			}
		}
	}
}

// TestVerifyRejects: the oracle must fail answers that are wrong or took
// another path, or a broken daemon would benchmark as a fast one.
func TestVerifyRejects(t *testing.T) {
	w := workloadByName(workloads(smokeScale), "small-hot")
	req := request{want: []relCheck{{count: 2, ints: 4, hash: mixInt(mixInt(mixInt(mixInt(fnvOffset, 1), 4), 9), 12)}}}
	ok := `{"strategy":"split-parallel","ingest":"inline","cache_hit":true,"count":2,"tuples":[[[1,4]],[[9,12]]]}`
	cases := map[string]int8{
		ok:                                     -1,
		strings.Replace(ok, "9,12", "9,13", 1): failRelation,
		strings.Replace(ok, `"count":2`, `"count":3`, 1):                failRelation,
		strings.Replace(ok, ",[[9,12]]", "", 1):                         failRelation,
		strings.Replace(ok, "split-parallel", "sequential", 1):          failPath,
		strings.Replace(ok, "inline", "buffered", 1):                    failPath,
		strings.Replace(ok, `"cache_hit":true`, `"cache_hit":false`, 1): failPath,
		"not json": failRelation,
	}
	for body, want := range cases {
		if got, _ := verify(w, req, []byte(body), true); got != want {
			t.Errorf("verify(%s) = %d, want %d", body, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}
