package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parallel"
	"repro/internal/regexformula"
	"repro/internal/span"
	"repro/internal/vsa"
)

// ledgerBytes caps the documents phase B and the one-client HTTP phase
// rotate over: a prefix of the pool, at least one document.
const ledgerBytes = 2 * mib

// ledgerIters is how often at least each ledger document is replayed
// through the nest of public calls; small documents are replayed until
// four call budgets are spent, at most maxLedgerIters times.
const (
	ledgerIters    = 9
	maxLedgerIters = 200
)

// layerBench is phase B of the traced run: the public functions of each
// layer, called in-process at one goroutine on the workload's documents,
// every call a span.
type layerBench struct {
	w      *workload
	docs   []string
	raw    [][]byte // docs as bytes, for ScanRun.Feed
	nbytes int
	info   daemonInfo
	tr     *tracer
	budget time.Duration // per timed function
	seed   uint64

	spanner  *vsa.Automaton
	splitter *core.Splitter
	members  []*vsa.Automaton
	multi    *vsa.Multi
	segs     [][]parallel.Segment

	eng    *engine.Engine
	req    engine.Request
	breq   engine.BatchRequest
	churnN int

	m map[string]float64
}

func ledgerDocs(p *pool) []string {
	n, total := 0, 0
	for n < len(p.docs) && (n == 0 || total+len(p.docs[n]) <= ledgerBytes) {
		total += len(p.docs[n])
		n++
	}
	return p.docs[:n]
}

func newLayerBench(p *pool, info daemonInfo, tr *tracer, budget time.Duration) *layerBench {
	b := &layerBench{w: p.w, docs: ledgerDocs(p), info: info, tr: tr, budget: budget, seed: p.seed,
		m: map[string]float64{}}
	for _, d := range b.docs {
		b.raw = append(b.raw, []byte(d))
		b.nbytes += len(d)
	}
	b.spanner = regexformula.MustCompile(sentimentSrc)
	b.spanner.Prepare()
	b.splitter = core.MustSplitter(regexformula.MustCompile(sentenceSrc))
	b.splitter.Automaton().Prepare()
	b.breq = engine.BatchRequest{Spanners: batchSpanners()}
	for _, src := range b.breq.Spanners {
		b.members = append(b.members, regexformula.MustCompile(src))
	}
	b.multi = vsa.NewMulti(b.members...)
	b.multi.Prepare()
	for _, d := range b.docs {
		b.segs = append(b.segs, parallel.SegmentsOf(d, b.splitter.Split(d)))
	}
	// The in-process engine mirrors what the daemon reported about its
	// default configuration.
	b.eng = engine.New(engine.Config{
		PlanCache: info.planCap, Workers: info.workers, RequestWorkers: info.requestWorkers,
		Batch: info.batch, ReadTimeout: 30 * time.Second,
	})
	b.req = engine.Request{Spanner: sentimentSrc, Splitter: p.w.splitter}
	return b
}

// timeCall calls f until the budget is spent (at least three times
// unless one call alone overruns it) and returns the median call time.
// prep, when non-nil, runs untimed before every call. Every call is a
// root span.
func (b *layerBench) timeCall(name string, prep, f func()) time.Duration {
	const maxCalls = 2000
	var durs []float64
	start := time.Now()
	for len(durs) < maxCalls {
		if prep != nil {
			prep()
		}
		id := b.tr.begin(name, -1, -1, len(durs))
		f()
		durs = append(durs, float64(b.tr.end(id)))
		if el := time.Since(start); (len(durs) >= 3 && el >= b.budget) || el >= 4*b.budget {
			break
		}
	}
	return time.Duration(median(durs))
}

// mbps is the rate of one pass over the ledger documents.
func (b *layerBench) mbps(d time.Duration) float64 { return float64(b.nbytes) / d.Seconds() / 1e6 }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// churnRequest is the next never-seen plan, as the plan-churn generator
// names them.
func (b *layerBench) churnRequest() engine.Request {
	b.churnN++
	return engine.Request{
		Spanner:  sentimentPre + "b" + strconv.FormatUint(b.seed, 10) + "_" + strconv.Itoa(b.churnN) + sentimentPost,
		Splitter: sentenceSrc,
	}
}

// decide is engine.compilePlan's verdict sequence on public calls.
func decide(p, sAuto *vsa.Automaton) error {
	s, err := core.NewSplitter(sAuto)
	if err != nil {
		return err
	}
	if s.IsDisjoint() {
		if _, err := s.IsLocal(0); err != nil {
			return err
		}
	}
	if p.Arity() > 0 && p.IsDeterministic() && s.Automaton().IsDeterministic() && s.IsDisjoint() {
		_, err = core.SelfSplittablePoly(p, s)
	} else {
		_, err = core.SelfSplittable(p, s, 0)
	}
	return err
}

// scanFeed segments doc the way the streaming engine does: a resumable
// scan fed 64 KiB chunks. ok is false when the scan bailed.
func (b *layerBench) scanFeed(doc []byte) (spans []span.Span, ok bool) {
	run, ok := b.splitter.NewScanRun()
	for off := 0; off < len(doc) && ok; off += 64 * kib {
		spans, ok = run.Feed(doc[off:min(off+64*kib, len(doc))], spans)
	}
	if ok {
		spans, ok = run.Flush(spans)
	}
	return spans, ok
}

// evalSegments is the executor's per-segment call without the executor:
// every segment appended to one relation from one arena, at one
// goroutine, unmerged.
func (b *layerBench) evalSegments(segs []parallel.Segment) {
	rel := span.NewRelation(b.spanner.Vars...)
	arena := new(span.TupleArena)
	for _, s := range segs {
		b.spanner.EvalAppend(s.Text, s.Span, rel, arena)
	}
}

func whole(doc string) []parallel.Segment {
	return []parallel.Segment{{Span: span.Span{Start: 1, End: len(doc) + 1}, Text: doc}}
}

// measure times every layer function and fills b.m.
func (b *layerBench) measure() error {
	ctx := context.Background()
	m := b.m
	var fail error
	check := func(err error) {
		if err != nil && fail == nil {
			fail = err
		}
	}

	// regexformula, core decision procedures, vsa.Prepare: the cold path
	// of a plan.
	formulas := append([]string(nil), b.w.spanners...)
	if b.w.splitter != "" {
		formulas = append(formulas, b.w.splitter)
	}
	d := b.timeCall("regexformula.Compile", nil, func() {
		for _, src := range formulas {
			_, err := regexformula.Compile(src)
			check(err)
		}
	})
	m["regexformula.compile_us"] = us(d) / float64(len(formulas))

	var fresh, freshSplit *vsa.Automaton
	compileFresh := func() {
		fresh = regexformula.MustCompile(sentimentSrc)
		freshSplit = regexformula.MustCompile(sentenceSrc)
	}
	m["core.decide_us"] = us(b.timeCall("core.decide", compileFresh, func() { check(decide(fresh, freshSplit)) }))
	m["vsa.prepare_us"] = us(b.timeCall("vsa.Prepare", compileFresh, func() { fresh.Prepare() }))

	// lazy-DFA fill: the first EvalBool of a prepared automaton against
	// the same call warm.
	fillDoc := b.docs[0][:min(len(b.docs[0]), 64*kib)]
	cold := b.timeCall("lazydfa.cold", func() { compileFresh(); fresh.Prepare() }, func() { fresh.EvalBool(fillDoc) })
	warm := b.timeCall("lazydfa.warm", nil, func() { b.spanner.EvalBool(fillDoc) })
	m["lazydfa.fill_us"] = us(cold - warm)

	// core: segmentation, whole-document and resumable.
	nsegs := 0
	d = b.timeCall("core.Split", nil, func() {
		nsegs = 0
		for _, doc := range b.docs {
			nsegs += len(b.splitter.Split(doc))
		}
	})
	m["core.split_mbps"] = b.mbps(d)
	m["core.segments_per_doc"] = float64(nsegs) / float64(len(b.docs))
	bails := 0
	d = b.timeCall("core.ScanRun", nil, func() {
		bails = 0
		for _, doc := range b.raw {
			if _, ok := b.scanFeed(doc); !ok {
				bails++
			}
		}
	})
	m["core.scanfeed_mbps"] = b.mbps(d)
	m["core.scan_bails"] = float64(bails)

	// vsa: Boolean, whole-document and per-segment evaluation.
	m["vsa.evalbool_mbps"] = b.mbps(b.timeCall("vsa.EvalBool", nil, func() {
		for _, doc := range b.docs {
			b.spanner.EvalBool(doc)
		}
	}))
	tuples := 0
	evalDur := b.timeCall("vsa.Eval", nil, func() {
		tuples = 0
		for _, doc := range b.docs {
			tuples += b.spanner.Eval(doc).Len()
		}
	})
	m["vsa.eval_mbps"] = b.mbps(evalDur)
	m["vsa.tuples_per_doc"] = float64(tuples) / float64(len(b.docs))
	segEval := b.timeCall("vsa.EvalAppend/segments", nil, func() {
		for _, segs := range b.segs {
			b.evalSegments(segs)
		}
	})
	m["vsa.eval_segment_ns"] = float64(segEval) / float64(max(nsegs, 1))

	// vsa.Multi: the fused pass against its members one by one.
	multiDur := b.timeCall("vsa.Multi.Eval", nil, func() {
		for _, doc := range b.docs {
			b.multi.Eval(doc)
		}
	})
	m["vsa.multi_eval_mbps"] = b.mbps(multiDur)
	seqDur := b.timeCall("vsa.Eval/members", nil, func() {
		for _, doc := range b.docs {
			for _, a := range b.members {
				a.Eval(doc)
			}
		}
	})
	m["vsa.multi_fusion_ratio"] = float64(seqDur) / float64(multiDur)

	// parallel: the executor at one and at all workers.
	n := b.info.workers
	w1 := b.timeCall("parallel.SplitEval/w1", nil, func() {
		for _, segs := range b.segs {
			parallel.SplitEval(b.spanner, segs, 1)
		}
	})
	wn := b.timeCall("parallel.SplitEval/wn", nil, func() {
		for _, segs := range b.segs {
			parallel.SplitEval(b.spanner, segs, n)
		}
	})
	m["parallel.spliteval_w1_mbps"] = b.mbps(w1)
	m["parallel.spliteval_wn_mbps"] = b.mbps(wn)
	m["parallel.sched_overhead_share"] = 1 - float64(segEval)/float64(w1)
	m["parallel.scaling_efficiency"] = float64(w1) / (float64(n) * float64(wn))
	m["parallel.split_speedup"] = float64(evalDur) / float64(wn)
	m["parallel.multieval_mbps"] = b.mbps(b.timeCall("parallel.MultiEval", nil, func() {
		for _, doc := range b.docs {
			parallel.MultiEval(b.multi, whole(doc), n)
		}
	}))

	// engine: plan cache and the three extraction entry points.
	plan, _, err := b.eng.Plan(ctx, b.req)
	if err != nil {
		return err
	}
	bplan, _, err := b.eng.PlanBatch(ctx, b.breq)
	if err != nil {
		return err
	}
	const loop = 1000 // calls per sample of the nanosecond-scale functions
	m["engine.plan_hit_ns"] = float64(b.timeCall("engine.Plan/hit", nil, func() {
		for i := 0; i < loop; i++ {
			_, _, err := b.eng.Plan(ctx, b.req)
			check(err)
		}
	})) / loop
	m["engine.plan_cold_us"] = us(b.timeCall("engine.Plan/cold", nil, func() {
		_, _, err := b.eng.Plan(ctx, b.churnRequest())
		check(err)
	}))
	m["engine.extract_mbps"] = b.mbps(b.timeCall("engine.Extract", nil, func() {
		for _, doc := range b.docs {
			_, err := b.eng.Extract(ctx, plan, doc)
			check(err)
		}
	}))
	m["engine.extractreader_mbps"] = b.mbps(b.timeCall("engine.ExtractReader", nil, func() {
		for _, doc := range b.docs {
			_, err := b.eng.ExtractReader(ctx, plan, strings.NewReader(doc))
			check(err)
		}
	}))
	m["engine.extractbatch_mbps"] = b.mbps(b.timeCall("engine.ExtractBatch", nil, func() {
		for _, doc := range b.docs {
			_, err := b.eng.ExtractBatch(ctx, bplan, doc)
			check(err)
		}
	}))

	// admission: an uncontended token.
	lim := admission.New(admission.Config{Tokens: b.info.admit})
	m["admission.acquire_ns"] = float64(b.timeCall("admission.Acquire", nil, func() {
		for i := 0; i < loop; i++ {
			release, err := lim.Acquire(ctx)
			check(err)
			if err == nil {
				release()
			}
		}
	})) / loop

	// bench: the machine's roofline and encoding/json on bodies of the
	// workload's shape.
	m["bench.memchr_mbps"] = b.mbps(b.timeCall("bench.memchr", nil, func() {
		for _, doc := range b.raw {
			bytes.IndexByte(doc, 0)
		}
	}))
	var reqBodies, respBodies [][]byte
	var resps []any
	for _, doc := range b.docs {
		reqBodies = append(reqBodies, jsonBody(b.w.spanners, b.w.splitter, doc))
		rel := b.spanner.Eval(doc)
		tuples := make([][][2]int, 0, rel.Len())
		for _, t := range rel.Tuples {
			row := make([][2]int, len(t))
			for i, s := range t {
				row[i] = [2]int{s.Start, s.End}
			}
			tuples = append(tuples, row)
		}
		resp := map[string]any{"vars": rel.Vars, "count": rel.Len(), "tuples": tuples}
		resps = append(resps, resp)
		respBodies = append(respBodies, mustJSON(resp))
	}
	total := func(bodies [][]byte) (n float64) {
		for _, body := range bodies {
			n += float64(len(body))
		}
		return n
	}
	d = b.timeCall("bench.json.Decode", nil, func() {
		for _, body := range reqBodies {
			var v struct {
				Spanner, Splitter, Doc string
				Spanners               []string
			}
			check(json.Unmarshal(body, &v))
		}
	})
	m["bench.json_decode_mbps"] = total(reqBodies) / d.Seconds() / 1e6
	d = b.timeCall("bench.json.Encode", nil, func() {
		for _, resp := range resps {
			enc := json.NewEncoder(io.Discard)
			enc.SetEscapeHTML(false)
			check(enc.Encode(resp))
		}
	})
	m["bench.json_encode_mbps"] = total(respBodies) / d.Seconds() / 1e6
	if fail != nil {
		return fmt.Errorf("workload %s: layer call failed: %w", b.w.name, fail)
	}
	return nil
}

// replay sends every ledger document at least ledgerIters times through the
// request's own engine entry point (a root span "engine.request"), then
// replays the public calls that request makes below it as child spans,
// so that a layer's self time is its span minus its children.
func (b *layerBench) replay() error {
	ctx := context.Background()
	bplan, _, err := b.eng.PlanBatch(ctx, b.breq)
	if err != nil {
		return err
	}
	workers := max(b.info.requestWorkers, 1)
	start := time.Now()
	for it := 0; it < ledgerIters || (it < maxLedgerIters && time.Since(start) < 4*b.budget); it++ {
		for di, doc := range b.docs {
			tr := b.tr
			root := tr.begin("engine.request", -1, di, it)
			var plan *engine.Plan
			switch {
			case b.w.endpoint == "/v1/extract-batch":
				if _, _, err = b.eng.PlanBatch(ctx, b.breq); err == nil {
					_, err = b.eng.ExtractBatch(ctx, bplan, doc)
				}
			case b.w.churn:
				if plan, _, err = b.eng.Plan(ctx, b.churnRequest()); err == nil {
					_, err = b.eng.Extract(ctx, plan, doc)
				}
			case b.w.raw:
				if plan, _, err = b.eng.Plan(ctx, b.req); err == nil {
					_, err = b.eng.ExtractReader(ctx, plan, strings.NewReader(doc))
				}
			default:
				if plan, _, err = b.eng.Plan(ctx, b.req); err == nil {
					_, err = b.eng.Extract(ctx, plan, doc)
				}
			}
			tr.end(root)
			if err != nil {
				return fmt.Errorf("workload %s: ledger replay: %w", b.w.name, err)
			}

			if b.w.churn {
				// A cold plan compiles, decides and prepares on the request.
				c := tr.begin("regexformula.Compile", root, di, it)
				pa := regexformula.MustCompile(sentimentSrc)
				sa := regexformula.MustCompile(sentenceSrc)
				tr.end(c)
				c = tr.begin("core.decide", root, di, it)
				err = decide(pa, sa)
				tr.end(c)
				if err != nil {
					return err
				}
				c = tr.begin("vsa.Prepare", root, di, it)
				pa.Prepare()
				sa.Prepare()
				tr.end(c)
			}
			switch {
			case b.w.endpoint == "/v1/extract-batch":
				me := tr.begin("parallel.MultiEval", root, di, it)
				parallel.MultiEval(b.multi, whole(doc), workers)
				tr.end(me)
				c := tr.begin("vsa.Multi.Eval", me, di, it)
				b.multi.Eval(doc)
				tr.end(c)
			case b.w.splitter != "":
				// A streamed document is segmented by the resumable scan,
				// an inline one by Split.
				var spans []span.Span
				if b.w.raw {
					c := tr.begin("core.ScanRun", root, di, it)
					spans, _ = b.scanFeed(b.raw[di])
					tr.end(c)
				} else {
					c := tr.begin("core.Split", root, di, it)
					spans = b.splitter.Split(doc)
					tr.end(c)
				}
				segs := parallel.SegmentsOf(doc, spans)
				se := tr.begin("parallel.SplitEval", root, di, it)
				parallel.SplitEval(b.spanner, segs, workers)
				tr.end(se)
				tr.setLanes(se, min(workers, len(segs)))
				// One span for the segments' evaluations together: a span
				// per segment would cost more than the call it times.
				c := tr.begin("vsa.EvalAppend/segments", se, di, it)
				b.evalSegments(segs)
				tr.end(c)
			default:
				c := tr.begin("vsa.Eval", root, di, it)
				b.spanner.Eval(doc)
				tr.end(c)
			}
		}
	}
	return nil
}
