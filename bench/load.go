package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// failure kinds; any of them counts a request as failed.
const (
	failTransport = iota // no HTTP response
	failStatus           // status other than 200
	failRelation         // count or tuples differ from sequential Eval
	failPath             // strategy / ingest / cache_hit / slots not the workload's
	numFailKinds
)

var failNames = [numFailKinds]string{"transport", "status", "relation", "path"}

func failures(fails [numFailKinds]int) int {
	n := 0
	for _, f := range fails {
		n += f
	}
	return n
}

// sample is one request as the client saw it.
type sample struct {
	start, end time.Duration // since the start of the run
	doc        int           // pool index
	nbytes     int           // document bytes
	relBytes   int           // bytes of the answer's tuples arrays
	traced     bool          // spans were recorded for this request
	fail       int8          // -1 = answered 200, correct, on the expected path
}

// generator is the single load source: a closed loop of keep-alive
// connections, each sending its next request only when the previous
// answer has been read and checked — spand's callers are pipeline
// stages that wait for the relation.
type generator struct {
	base    string
	p       *pool
	clients []*http.Client
	sent    atomic.Int64 // timed requests so far; churn plans never repeat
}

func newGenerator(base string, p *pool, clients int) *generator {
	g := &generator{base: base, p: p}
	for i := 0; i < clients; i++ {
		g.clients = append(g.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, DisableCompression: true}})
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// warm sends every request of the pool once, untimed apart from the
// caller's set-up clock. The first answers are plan-cache misses by
// construction, so cache_hit is not checked; everything else is, and a
// wrong answer here is an error: the timed window would measure a
// broken daemon.
func (g *generator) warm() error {
	var next atomic.Int64
	samples := g.run(len(g.clients), nil, false, func() (request, bool) {
		i := int(next.Add(1)) - 1
		if i >= len(g.p.reqs) {
			return request{}, false
		}
		req := g.p.reqs[i]
		req.seq = i
		return req, true
	})
	for _, s := range samples {
		if s.fail >= 0 {
			return fmt.Errorf("workload %s: warm-up request failed (%s)", g.p.w.name, failNames[s.fail])
		}
	}
	return nil
}

// window drives the timed stream for d on the first `clients`
// connections. limit > 0 restricts the rotation to the first limit pool
// entries (the ledger's documents). With a tracer, every other pass over
// the pool records spans: traced and untraced requests share every
// second of the window, so their difference is the tracing and not the
// box's mood.
func (g *generator) window(d time.Duration, clients, limit int, tr *tracer) []sample {
	deadline := time.Now().Add(d)
	return g.run(clients, tr, true, func() (request, bool) {
		if !time.Now().Before(deadline) {
			return request{}, false
		}
		i := int(g.sent.Add(1)) - 1
		req := g.p.request(i)
		if limit > 0 && !g.p.w.churn {
			req = g.p.reqs[i%min(limit, len(g.p.reqs))]
		}
		req.seq = i
		return req, true
	})
}

// run is the closed loop. Samples come back ordered by completion.
func (g *generator) run(clients int, tr *tracer, checkHit bool, next func() (request, bool)) []sample {
	t0 := time.Now()
	perClient := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				req, ok := next()
				if !ok {
					return
				}
				perClient[c] = append(perClient[c], g.do(g.clients[c], req, &buf, t0, tr, checkHit))
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end < all[j].end })
	return all
}

// do sends one request, reads the whole answer and checks it.
func (g *generator) do(c *http.Client, req request, buf *bytes.Buffer, t0 time.Time, tr *tracer, checkHit bool) sample {
	if (req.seq/len(g.p.reqs))%2 == 0 {
		tr = nil // passes over the pool are traced in turn, so both kinds see every document
	}
	s := sample{doc: req.doc, nbytes: req.nbytes, fail: -1, traced: tr != nil}
	root, child := -1, -1
	if tr != nil {
		root = tr.begin("spand.request", -1, req.doc, req.seq)
		child = tr.begin("spand.roundtrip", root, req.doc, req.seq)
	}
	s.start = time.Since(t0)
	hreq, err := http.NewRequest(http.MethodPost, g.base+req.path, bytes.NewReader(req.body))
	if err != nil {
		panic(err) // the harness built the URL
	}
	hreq.Header.Set("Content-Type", req.ctype)
	resp, err := c.Do(hreq)
	if tr != nil {
		tr.end(child)
	}
	if err != nil {
		s.fail = failTransport
	} else {
		if tr != nil {
			child = tr.begin("spand.readbody", root, req.doc, req.seq)
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if tr != nil {
			tr.end(child)
			child = tr.begin("bench.verify", root, req.doc, req.seq)
		}
		switch {
		case err != nil:
			s.fail = failTransport
		case resp.StatusCode != http.StatusOK:
			s.fail = failStatus
		default:
			s.fail, s.relBytes = verify(g.p.w, req, buf.Bytes(), checkHit)
		}
		if tr != nil {
			tr.end(child)
		}
	}
	s.end = time.Since(t0)
	if tr != nil {
		tr.end(root)
	}
	return s
}

// answer is the part of an extraction response the oracle reads; the
// tuples stay raw so a 235 KB relation costs the generator a scan, not
// an allocation per span.
type answer struct {
	Strategy string          `json:"strategy"`
	Ingest   string          `json:"ingest"`
	CacheHit bool            `json:"cache_hit"`
	Count    int             `json:"count"`
	Tuples   json.RawMessage `json:"tuples"`
	Queries  []struct {
		Count  int             `json:"count"`
		Tuples json.RawMessage `json:"tuples"`
		Error  string          `json:"error"`
	} `json:"queries"`
}

// verify compares one 200 answer with the oracle and the workload's
// path; it returns the failure kind or -1, and the bytes of relation
// the answer carried.
func verify(w *workload, req request, body []byte, checkHit bool) (fail int8, relBytes int) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return failRelation, 0
	}
	if checkHit && a.CacheHit != w.wantHit {
		return failPath, 0
	}
	if w.endpoint == "/v1/extract-batch" {
		if len(a.Queries) != len(req.want) {
			return failPath, 0
		}
		for i, q := range a.Queries {
			if q.Error != "" || !req.want[i].matches(q.Count, q.Tuples) {
				return failRelation, 0
			}
			relBytes += len(q.Tuples)
		}
		return -1, relBytes
	}
	if a.Strategy != w.wantStrategy || a.Ingest != w.wantIngest {
		return failPath, 0
	}
	if !req.want[0].matches(a.Count, a.Tuples) {
		return failRelation, 0
	}
	return -1, len(a.Tuples)
}

// matches hashes every integer of the raw tuples array in order and
// compares count, number of span bounds and hash with the oracle's.
func (c relCheck) matches(count int, tuples []byte) bool {
	if count != c.count {
		return false
	}
	h, n, v, in := uint64(fnvOffset), 0, 0, false
	for _, b := range tuples {
		if b >= '0' && b <= '9' {
			v, in = v*10+int(b-'0'), true
		} else if in {
			h, n, v, in = mixInt(h, v), n+1, 0, false
		}
	}
	return n == c.ints && h == c.hash
}
