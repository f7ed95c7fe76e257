package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/corpus"
	"repro/internal/regexformula"
	"repro/internal/span"
)

// The formulas spand is sent. They are the sources of
// library.NegativeSentiment and library.Sentences, which the library
// only exports compiled; the daemon takes formula text.
const (
	sentimentPre  = `(.*[ .!?\n])?bad (`
	sentimentPost = `{[a-z]+})(([^a-z].*)?|)`
	sentimentSrc  = sentimentPre + "y" + sentimentPost
	sentenceSrc   = "(x{[^.!?\\n]*})([.!?\\n][^.!?\\n]*)*|" +
		"[^.!?\\n]*([.!?\\n][^.!?\\n]*)*[.!?\\n](x{[^.!?\\n]*})([.!?\\n][^.!?\\n]*)*"
)

// batchWords are the 16 words of the fused batch: "bad" is dense in
// review text (one sentence in four), the other fifteen occur only in
// the short lead-ins of those sentences, so every member query has a
// non-empty but small relation and the fused scan, not the encoder,
// does the work.
var batchWords = []string{
	"bad", "the", "of", "and", "a", "to", "in", "is",
	"was", "he", "for", "it", "with", "as", "his", "on",
}

func batchSpanners() []string {
	out := make([]string, len(batchWords))
	for i, w := range batchWords {
		out[i] = `(.*[ .!?\n])?` + w + ` (y{[a-z]+})(([^a-z].*)?|)`
	}
	return out
}

// workload is one traffic mix. The want* fields are the path the mix is
// defined by: a response that took another path is a failure, so a
// change that silently flips a path cannot benchmark a different thing.
type workload struct {
	name string
	why  string

	endpoint string   // "/v1/extract" or "/v1/extract-batch"
	spanners []string // one formula, or the 16 of the fused batch
	splitter string   // "" = sequential-only plan
	raw      bool     // document as raw body (formulas in the query) vs inline JSON
	churn    bool     // every request renames the capture: a never-seen plan

	docBytes int
	poolSize int // documents (churn: warm-up requests) in the pool
	gen      func(seed uint64, i, n int) string

	wantStrategy string
	wantIngest   string
	wantHit      bool
}

const (
	mib = 1 << 20
	kib = 1 << 10
)

// workloads returns the five mixes. scale < 1 shrinks documents and
// pools for the smoke test; the driver and the full run use 1.
func workloads(scale float64) []*workload {
	sz := func(n int) int { return max(int(float64(n)*scale), 512) }
	pool := func(n int) int { return max(int(float64(n)*scale), 2) }
	return []*workload{
		{
			name:     "large-dense-split",
			why:      "2 MiB review corpora, raw body, split-parallel + streamed: windows, tagged sim, scanner, executor, merge and a big JSON answer do all the work",
			endpoint: "/v1/extract", spanners: []string{sentimentSrc}, splitter: sentenceSrc, raw: true,
			docBytes: sz(2 * mib), poolSize: pool(4), gen: reviewsDoc,
			wantStrategy: "split-parallel", wantIngest: "streamed", wantHit: true,
		},
		{
			name:     "large-sparse-seq",
			why:      "2 MiB sparse/non-matching text, no splitter, sequential + buffered: evaluation is nearly free, so ingest and transport dominate; bypasses the executor and segmenter",
			endpoint: "/v1/extract", spanners: []string{sentimentSrc}, raw: true,
			docBytes: sz(2 * mib), poolSize: pool(4), gen: sparseDoc,
			wantStrategy: "sequential", wantIngest: "buffered", wantHit: true,
		},
		{
			name:     "small-hot",
			why:      "2 KiB docs on a cached split plan, inline JSON: per-request fixed costs (HTTP, JSON, admission, plan-cache hit, executor start-up) with little evaluation",
			endpoint: "/v1/extract", spanners: []string{sentimentSrc}, splitter: sentenceSrc,
			docBytes: max(int(2*kib*scale), 256), poolSize: pool(64), gen: reviewsDoc,
			wantStrategy: "split-parallel", wantIngest: "inline", wantHit: true,
		},
		{
			name:     "plan-churn",
			why:      "every request a never-seen spanner over one 1 KiB doc: compile + the paper's decision procedures + Prepare on the request path, 100% plan-cache misses and evictions",
			endpoint: "/v1/extract", spanners: []string{sentimentSrc}, splitter: sentenceSrc, churn: true,
			docBytes: kib, poolSize: pool(64), gen: reviewsDoc,
			wantStrategy: "split-parallel", wantIngest: "inline", wantHit: false,
		},
		{
			name:     "batch-fused",
			why:      "16 spanners over 256 KiB docs as one /v1/extract-batch: the only traffic on vsa.Multi / parallel.MultiEval / ExtractBatch and on a sizeable inline JSON document",
			endpoint: "/v1/extract-batch", spanners: batchSpanners(),
			docBytes: sz(256 * kib), poolSize: pool(8), gen: reviewsDoc,
			wantHit: true,
		},
	}
}

func workloadByName(ws []*workload, name string) *workload {
	for _, w := range ws {
		if w.name == name {
			return w
		}
	}
	return nil
}

// docSeed spreads one benchmark seed over the documents of a pool.
func docSeed(seed uint64, i int) uint64 { return seed*1_000_003 + uint64(i)*7919 + 1 }

// reviewsDoc is a '\n'-joined review corpus of exactly n bytes. Review
// lengths are heavy-tailed, so the count needed is not known up front.
func reviewsDoc(seed uint64, i, n int) string {
	for count := n/64 + 8; ; count *= 2 {
		if doc := strings.Join(corpus.Reviews(docSeed(seed, i), count), "\n"); len(doc) >= n {
			return doc[:n]
		}
	}
}

// sparseDoc alternates a corpus with one sentiment match every 64 KiB
// and one with none, n bytes each.
func sparseDoc(seed uint64, i, n int) string {
	if i%2 == 0 {
		return corpus.SparseSentiment(docSeed(seed, i), n, 64*kib)[:n]
	}
	return corpus.Wikipedia(docSeed(seed, i), n)[:n]
}

// relCheck is what a correct answer to one query must carry: the tuple
// count and a hash of every span bound, in relation order.
type relCheck struct {
	count int
	ints  int
	hash  uint64
}

// request is one generated HTTP request with its oracle.
type request struct {
	path   string // endpoint plus query
	ctype  string
	body   []byte
	doc    int // pool index
	seq    int // position in the generated stream
	nbytes int // document bytes
	want   []relCheck
}

// pool is a workload's generated inputs for one seed.
type pool struct {
	w    *workload
	seed uint64
	docs []string
	reqs []request // one per pool entry; churn: the warm-up requests
	// churn only: the body is pre + strconv(i) + post.
	churnPre, churnPost []byte
	churnWant           []relCheck
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mixInt(h uint64, v int) uint64 { return (h ^ uint64(v)) * fnvPrime }

// checkOf is the oracle: sequential evaluation of the compiled formula
// on the whole document, independent of splitters, executor and daemon.
func checkOf(rel *span.Relation) relCheck {
	c := relCheck{count: rel.Len(), hash: fnvOffset}
	for _, t := range rel.Tuples {
		for _, s := range t {
			c.hash = mixInt(mixInt(c.hash, s.Start), s.End)
			c.ints += 2
		}
	}
	return c
}

func buildPool(w *workload, seed uint64) (*pool, error) {
	p := &pool{w: w, seed: seed}
	ndocs := w.poolSize
	if w.churn {
		ndocs = 1
	}
	for i := 0; i < ndocs; i++ {
		p.docs = append(p.docs, w.gen(seed, i, w.docBytes))
	}
	want := make([][]relCheck, ndocs)
	tuples := 0
	for _, src := range w.spanners {
		a, err := regexformula.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("workload %s: compile %q: %w", w.name, src, err)
		}
		if w.churn {
			// The one document every plan is evaluated on must have a
			// match, or a plan that extracts nothing would pass the oracle.
			for i := 1; !a.EvalBool(p.docs[0]); i++ {
				p.docs[0] = w.gen(seed, i, w.docBytes)
			}
		}
		for i, doc := range p.docs {
			c := checkOf(a.Eval(doc))
			tuples += c.count
			want[i] = append(want[i], c)
		}
	}
	if tuples == 0 {
		return nil, fmt.Errorf("workload %s: no document matches, the oracle would be vacuous", w.name)
	}
	if w.churn {
		// The capture name is the only part of the body that changes.
		const placeholder = "CHURNVAR"
		body := jsonBody([]string{sentimentPre + placeholder + sentimentPost}, w.splitter, p.docs[0])
		pre, post, _ := bytes.Cut(body, []byte(placeholder))
		// pre shares body's array with post: append to a copy, or a name
		// longer than the placeholder overwrites the start of post.
		p.churnPre = append(bytes.Clone(pre), "y"+strconv.FormatUint(seed, 10)+"_"...)
		p.churnPost = post
		p.churnWant = want[0]
		for i := 0; i < w.poolSize; i++ {
			p.reqs = append(p.reqs, p.churnRequest(i))
		}
		return p, nil
	}
	for i, doc := range p.docs {
		r := request{doc: i, nbytes: len(doc), want: want[i], path: w.endpoint}
		if w.raw {
			q := url.Values{"spanner": w.spanners}
			if w.splitter != "" {
				q.Set("splitter", w.splitter)
			}
			r.path += "?" + q.Encode()
			r.ctype = "application/octet-stream"
			r.body = []byte(doc)
		} else {
			r.ctype = "application/json"
			r.body = jsonBody(w.spanners, w.splitter, doc)
		}
		p.reqs = append(p.reqs, r)
	}
	return p, nil
}

// churnRequest is the i-th never-seen plan: the capture is renamed
// y<seed>_<i>, which keeps compile cost and the expected spans constant.
func (p *pool) churnRequest(i int) request {
	body := make([]byte, 0, len(p.churnPre)+len(p.churnPost)+12)
	body = append(body, p.churnPre...)
	body = strconv.AppendInt(body, int64(i), 10)
	body = append(body, p.churnPost...)
	return request{path: p.w.endpoint, ctype: "application/json", body: body,
		nbytes: len(p.docs[0]), want: p.churnWant}
}

// request returns the i-th request of the timed stream: the pool in
// rotation, or for churn the (poolSize+i)-th plan, after the warm-up's.
func (p *pool) request(i int) request {
	if p.w.churn {
		return p.churnRequest(len(p.reqs) + i)
	}
	return p.reqs[i%len(p.reqs)]
}

// jsonBody is an inline-document request: the /v1/extract shape for one
// spanner, the /v1/extract-batch shape for several.
func jsonBody(spanners []string, splitter, doc string) []byte {
	if len(spanners) > 1 {
		return mustJSON(map[string]any{"spanners": spanners, "doc": doc})
	}
	return mustJSON(map[string]string{"spanner": spanners[0], "splitter": splitter, "doc": doc})
}

func mustJSON(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err) // strings and string slices always encode
	}
	return b.Bytes()
}
