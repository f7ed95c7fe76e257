package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
)

// extractJSON posts an inline-JSON extraction and returns the response.
func extractJSON(t *testing.T, url string, hdr map[string]string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(map[string]string{
		"spanner": emailFormula, "splitter": sentenceFormula, "doc": testDoc,
	})
	req, err := http.NewRequest("POST", url+"/v1/extract", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// holdToken occupies one admission token: it opens a streamed extract
// whose body never finishes, and returns a func that lets it complete.
func holdToken(t *testing.T, url string) (release func()) {
	t.Helper()
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequest("POST", url+"/v1/extract?spanner="+escapedEmail(), pr)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	pw.Write([]byte("warm-up bytes so the handler is surely running. "))
	// Give the request time to pass admission and block on the body.
	time.Sleep(50 * time.Millisecond)
	return func() {
		pw.Close()
		<-done
	}
}

func escapedEmail() string {
	return strings.NewReplacer("{", "%7B", "}", "%7D", "[", "%5B", "]", "%5D",
		"+", "%2B", "?", "%3F", "*", "%2A", "^", "%5E", "@", "%40", "(", "%28", ")", "%29").
		Replace(emailFormula)
}

func TestAdmissionSheds429WithRetryAfter(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	lim := admission.New(admission.Config{Tokens: 1, Queue: -1}) // no queue: admit or shed
	ts := httptest.NewServer(newServerWith(eng, serverConfig{limiter: lim}))
	defer ts.Close()

	release := holdToken(t, ts.URL)
	defer release()

	resp := extractJSON(t, ts.URL, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, b)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without a Retry-After header")
	}
	if sec, err := strconv.Atoi(ra); err != nil || sec < 1 || sec > 60 {
		t.Fatalf("Retry-After = %q, want an integer in [1, 60]", ra)
	}
	var body struct {
		Error         string `json:"error"`
		RetryAfterSec int    `json:"retry_after_sec"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("429 body not parseable: %v", err)
	}

	// After the held request completes, the next one is admitted again.
	release()
	ok := extractJSON(t, ts.URL, nil)
	defer ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d, want 200", ok.StatusCode)
	}
}

func TestAdmissionQueueAgeShed(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	lim := admission.New(admission.Config{Tokens: 1, Queue: 4, MaxWait: 30 * time.Millisecond})
	ts := httptest.NewServer(newServerWith(eng, serverConfig{limiter: lim}))
	defer ts.Close()

	release := holdToken(t, ts.URL)
	defer release()

	// This request queues, ages out after MaxWait, and is shed 429.
	t0 := time.Now()
	resp := extractJSON(t, ts.URL, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 from queue ageing", resp.StatusCode)
	}
	if waited := time.Since(t0); waited > 2*time.Second {
		t.Fatalf("aged shed took %s, want prompt rejection around MaxWait", waited)
	}
	if st := lim.Snapshot(); st.ShedAged == 0 {
		t.Fatalf("limiter stats = %+v, want shed_aged > 0", st)
	}
}

func TestDeadlineMapsTo504(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	ts := httptest.NewServer(newServerWith(eng, serverConfig{deadline: 60 * time.Millisecond}))
	defer ts.Close()

	// A streamed body that trickles well past the deadline (bounded, so
	// the server's post-response body drain terminates promptly too).
	pr, pw := io.Pipe()
	go func() {
		defer pw.Close()
		for i := 0; i < 50; i++ {
			if _, err := pw.Write([]byte("drip. ")); err != nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	req, _ := http.NewRequest("POST", ts.URL+"/v1/extract?spanner="+escapedEmail(), pr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, b)
	}
}

// TestStalledUploadMapsTo408: a body that goes silent answers 408, on the
// buffered route and on the streamed one — where it stalls past the
// break-even while the executor's workers pull it, and net/http cancels
// the request inside the Read that timed out.
func TestStalledUploadMapsTo408(t *testing.T) {
	for _, c := range []struct {
		name string
		body string
		q    url.Values
	}{
		{"buffered", "some bytes, then silence. ", url.Values{"spanner": {emailFormula}}},
		{"streamed", strings.Repeat(testDoc+" ", 2000), url.Values{"spanner": {emailFormula}, "splitter": {sentenceFormula}}}, // 134 KB
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := engine.New(engine.Config{Workers: 2, ReadTimeout: 50 * time.Millisecond})
			ts := httptest.NewServer(newServer(eng))
			defer ts.Close()

			pr, pw := io.Pipe()
			defer pw.Close()
			go io.WriteString(pw, c.body)
			req, _ := http.NewRequest("POST", ts.URL+"/v1/extract?"+c.q.Encode(), pr)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusRequestTimeout {
				t.Fatalf("status = %d (%s), want 408 for a stalled upload", resp.StatusCode, b)
			}
		})
	}
}

// TestStalledRequestBodyAnswers: an inline JSON body that stops
// mid-string, or a multipart body that stops inside a formula field or a
// part's headers, is read through the engine's stall guard like a
// document: 408 under -read-timeout, 504 under -deadline, each with
// Connection: close, on all three endpoints. The request gives its
// admission token back, and no engine goroutine outlives it.
func TestStalledRequestBodyAnswers(t *testing.T) {
	base := engineGoroutines()
	field := "--b\r\nContent-Disposition: form-data; name=\"spanner\"\r\n\r\n(.*"
	header := "--b\r\nContent-Disposition: form-data; name=\"spanner\"\r\n\r\n(.*)\r\n--b\r\nContent-Disposition: form-da"
	for _, c := range []struct {
		name, path, ctype, prefix string
		cfg                       engine.Config
		deadline                  time.Duration
		status                    int
	}{
		{"extract/read-timeout", "/v1/extract", "application/json", `{"spanner":"(.*`, engine.Config{ReadTimeout: 50 * time.Millisecond}, 0, http.StatusRequestTimeout},
		{"extract-batch/read-timeout", "/v1/extract-batch", "application/json", `{"spanners":["(.*`, engine.Config{ReadTimeout: 50 * time.Millisecond}, 0, http.StatusRequestTimeout},
		{"check/read-timeout", "/v1/check", "application/json", `{"doc":"some`, engine.Config{ReadTimeout: 50 * time.Millisecond}, 0, http.StatusRequestTimeout},
		{"multipart-field/read-timeout", "/v1/extract", "multipart/form-data; boundary=b", field, engine.Config{ReadTimeout: 50 * time.Millisecond}, 0, http.StatusRequestTimeout},
		{"multipart-header/read-timeout", "/v1/extract", "multipart/form-data; boundary=b", header, engine.Config{ReadTimeout: 50 * time.Millisecond}, 0, http.StatusRequestTimeout},
		{"extract/deadline", "/v1/extract", "application/json", `{"spanner":"(.*`, engine.Config{}, 200 * time.Millisecond, http.StatusGatewayTimeout},
		{"extract-batch/deadline", "/v1/extract-batch", "application/json", `{"spanners":["(.*`, engine.Config{}, 200 * time.Millisecond, http.StatusGatewayTimeout},
		{"check/deadline", "/v1/check", "application/json", `{"doc":"some`, engine.Config{}, 200 * time.Millisecond, http.StatusGatewayTimeout},
		{"multipart-field/deadline", "/v1/extract", "multipart/form-data; boundary=b", field, engine.Config{}, 200 * time.Millisecond, http.StatusGatewayTimeout},
		{"multipart-header/deadline", "/v1/extract", "multipart/form-data; boundary=b", header, engine.Config{}, 200 * time.Millisecond, http.StatusGatewayTimeout},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Workers = 2
			lim := admission.New(admission.Config{Tokens: 1, Queue: -1})
			ts := httptest.NewServer(newServerWith(engine.New(c.cfg), serverConfig{limiter: lim, deadline: c.deadline}))
			defer ts.Close()
			pr, pw := io.Pipe()
			defer pw.Close()
			go io.WriteString(pw, c.prefix)
			// Unanswered, the request fails here rather than hanging the test.
			defer time.AfterFunc(5*time.Second, func() { pw.CloseWithError(errors.New("no answer in 5 s")) }).Stop()
			req, _ := http.NewRequest("POST", ts.URL+c.path, pr)
			req.Header.Set("Content-Type", c.ctype)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.status || !resp.Close {
				t.Fatalf("status %d (%s), Connection: close %v; want %d and close", resp.StatusCode, b, resp.Close, c.status)
			}
			for deadline := time.Now().Add(5 * time.Second); lim.Snapshot().InUse != 0 || engineGoroutines() > base; time.Sleep(10 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d admission tokens in use, %d engine goroutines (%d before)", lim.Snapshot().InUse, engineGoroutines(), base)
				}
			}
		})
	}
}

// readMultipartResponse parses a multipart/mixed extraction response
// into named JSON parts.
func readMultipartResponse(t *testing.T, resp *http.Response) map[string]json.RawMessage {
	t.Helper()
	mt, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil || mt != "multipart/mixed" {
		t.Fatalf("Content-Type = %q, want multipart/mixed", resp.Header.Get("Content-Type"))
	}
	mr := multipart.NewReader(resp.Body, params["boundary"])
	parts := map[string]json.RawMessage{}
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			return parts
		}
		if err != nil {
			t.Fatalf("multipart read: %v (got parts %v)", err, parts)
		}
		_, dparams, _ := mime.ParseMediaType(p.Header.Get("Content-Disposition"))
		data, err := io.ReadAll(p)
		if err != nil {
			t.Fatalf("part %q: %v", dparams["name"], err)
		}
		parts[dparams["name"]] = data
	}
}

func TestMultipartResponseOKPath(t *testing.T) {
	ts := startDaemon(t)
	for _, tc := range []struct {
		doc       string
		count     int
		execution string
	}{{testDoc, 3, "whole"}, {splitDoc, 3000, "chunked"}} {
		body, _ := json.Marshal(map[string]string{
			"spanner": emailFormula, "splitter": sentenceFormula, "doc": tc.doc,
		})
		req, _ := http.NewRequest("POST", ts.URL+"/v1/extract", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", "multipart/mixed")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		parts := readMultipartResponse(t, resp)
		if _, ok := parts["plan"]; !ok {
			t.Fatalf("no plan part in %v", parts)
		}
		var tuples [][][2]int
		if err := json.Unmarshal(parts["tuples"], &tuples); err != nil || len(tuples) != tc.count {
			t.Fatalf("tuples part: %d rows (err %v), want %d", len(tuples), err, tc.count)
		}
		var end epilogue
		if err := json.Unmarshal(parts["end"], &end); err != nil {
			t.Fatalf("bad epilogue %s: %v", parts["end"], err)
		}
		if end.Status != "ok" || end.Count != tc.count || end.Execution != tc.execution {
			t.Fatalf("epilogue = %+v, want ok with %d tuples from a document evaluated %s", end, tc.count, tc.execution)
		}
	}
}

func TestMultipartResponseErrorEpilogueOnDeadline(t *testing.T) {
	// The 200 header and the plan part are already on the wire when the
	// engine's deadline fires mid-stream; the response must still end
	// with an explicit error epilogue, not a silent truncation.
	eng := engine.New(engine.Config{Workers: 2})
	ts := httptest.NewServer(newServerWith(eng, serverConfig{deadline: 60 * time.Millisecond}))
	defer ts.Close()

	pr, pw := io.Pipe()
	go func() {
		defer pw.Close()
		for i := 0; i < 50; i++ {
			if _, err := pw.Write([]byte("drip. ")); err != nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	req, _ := http.NewRequest("POST", ts.URL+"/v1/extract?spanner="+escapedEmail(), pr)
	req.Header.Set("Accept", "multipart/mixed")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (the header precedes the failure)", resp.StatusCode)
	}
	parts := readMultipartResponse(t, resp)
	var end epilogue
	if err := json.Unmarshal(parts["end"], &end); err != nil {
		t.Fatalf("bad epilogue %s: %v", parts["end"], err)
	}
	if end.Status != "error" || end.Error == "" {
		t.Fatalf("epilogue = %+v, want an explicit error", end)
	}
	if end.HTTPStatus != http.StatusGatewayTimeout {
		t.Fatalf("epilogue http_status = %d, want 504", end.HTTPStatus)
	}
	if _, ok := parts["tuples"]; ok {
		t.Fatal("failed extraction must not emit a tuples part")
	}
}

func TestTenantHeaderScopesPlanCache(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 2})
	ts := httptest.NewServer(newServerWith(eng, serverConfig{tenantHeader: "X-Tenant"}))
	defer ts.Close()

	get := func(tenant string) extractResult {
		resp := extractJSON(t, ts.URL, map[string]string{"X-Tenant": tenant})
		return decodeExtract(t, resp)
	}
	if r := get("alice"); r.CacheHit {
		t.Fatal("alice's first request reported a cache hit")
	}
	if r := get("alice"); !r.CacheHit {
		t.Fatal("alice's second request missed her cached plan")
	}
	// Same formulas, different tenant: quotas are per tenant, so bob
	// compiles his own plan.
	if r := get("bob"); r.CacheHit {
		t.Fatal("bob hit alice's cache entry across the tenant boundary")
	}
}

// TestChaosDrainUnderLoad is the satellite-3 chaos test: hammer all
// four endpoints from many goroutines while SIGTERM-style drain fires
// and the admission queue oscillates between full and empty. Two
// invariants:
//
//  1. No request is both shed and executed: the engine's document
//     counter cannot exceed the number of extract attempts that were
//     NOT answered 429.
//  2. The drain completes within its deadline (plus scheduling slack)
//     and in-flight admitted requests finish with real responses.
func TestChaosDrainUnderLoad(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 4, Batch: 2})
	lim := admission.New(admission.Config{Tokens: 2, Queue: 2, MaxWait: 20 * time.Millisecond})
	const drainBudget = 2 * time.Second
	d := newDaemon("127.0.0.1:0", eng, serverConfig{
		limiter:      lim,
		deadline:     time.Second,
		tenantHeader: "X-Tenant",
	}, drainBudget)
	ln, err := net.Listen("tcp", d.srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		d.srv.Serve(ln)
	}()
	url := "http://" + ln.Addr().String()

	var (
		extractSent atomic.Int64 // extract requests that reached the server (any response)
		extract429  atomic.Int64 // ... answered 429
		extractOK   atomic.Int64 // ... answered 200
		extractLost atomic.Int64 // ... whose response was lost (conn died during drain)
		truncated   atomic.Int64 // responses cut off mid-body (admitted but dropped)
	)
	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 5 * time.Second}
	body, _ := json.Marshal(map[string]string{
		"spanner": emailFormula, "splitter": sentenceFormula, "doc": testDoc,
	})
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g%3)
			for i := 0; ; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				var (
					req *http.Request
					err error
				)
				switch i % 4 {
				case 0, 1: // extract dominates so the queue oscillates
					req, err = http.NewRequest("POST", url+"/v1/extract", bytes.NewReader(body))
					req.Header.Set("Content-Type", "application/json")
				case 2:
					check, _ := json.Marshal(map[string]string{"spanner": emailFormula, "splitter": sentenceFormula})
					req, err = http.NewRequest("POST", url+"/v1/check", bytes.NewReader(check))
					req.Header.Set("Content-Type", "application/json")
				case 3:
					if i%8 == 3 {
						req, err = http.NewRequest("GET", url+"/v1/stats", nil)
					} else {
						req, err = http.NewRequest("GET", url+"/metrics", nil)
					}
				}
				if err != nil {
					continue
				}
				req.Header.Set("X-Tenant", tenant)
				isExtract := i%4 <= 1
				resp, err := client.Do(req)
				if err != nil {
					// Connection refused/reset during drain: the request never
					// got a response, so it is not counted as sent — but it may
					// have been admitted and executed before the connection
					// died, so lost extracts widen invariant 1's allowance.
					if isExtract {
						extractLost.Add(1)
					}
					continue
				}
				if isExtract {
					extractSent.Add(1)
					switch resp.StatusCode {
					case http.StatusTooManyRequests:
						extract429.Add(1)
					case http.StatusOK:
						extractOK.Add(1)
					}
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil && resp.StatusCode == http.StatusOK {
					truncated.Add(1)
				}
				resp.Body.Close()
			}
		}(g)
	}

	// Let the storm develop, then fire the drain mid-load.
	time.Sleep(300 * time.Millisecond)
	t0 := time.Now()
	drainErr := d.shutdown()
	drainTook := time.Since(t0)
	close(stopLoad)
	wg.Wait()
	<-serveDone

	if drainTook > drainBudget+time.Second {
		t.Fatalf("drain took %s, budget was %s", drainTook, drainBudget)
	}
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		t.Fatalf("drain: %v", drainErr)
	}

	sent, shed, ok := extractSent.Load(), extract429.Load(), extractOK.Load()
	if sent == 0 || ok == 0 {
		t.Fatalf("load too thin: sent=%d ok=%d — chaos test exercised nothing", sent, ok)
	}
	if shed == 0 {
		t.Logf("note: no sheds observed (sent=%d); queue never overflowed on this machine", sent)
	}
	// Invariant 1: a shed request never executed. Every document the
	// engine counted came from a non-429 extract attempt (inline JSON
	// extracts count one document each, at evaluation start) — or from
	// an admitted request whose response connection died during drain.
	docs := int64(eng.Stats().Documents)
	if lost := extractLost.Load(); docs > sent-shed+lost {
		t.Fatalf("engine evaluated %d documents but only %d extract attempts were admitted (sent=%d shed=%d lost=%d): some request was both 429'd and executed",
			docs, sent-shed+lost, sent, shed, lost)
	}
	// Invariant 2: admitted (200) responses were delivered whole.
	if n := truncated.Load(); n != 0 {
		t.Fatalf("%d admitted responses were truncated during drain", n)
	}
	// The limiter's own books must balance: everything admitted was
	// released (no token leaks), nothing is left in the queue.
	st := lim.Snapshot()
	if st.InUse != 0 || st.QueueDepth != 0 {
		t.Fatalf("limiter leaked after drain: %+v", st)
	}
}

// TestOverBudgetUploadsLeaveNoGoroutine: a client that keeps sending after
// the daemon has answered 413 must cost the daemon nothing once its
// connection is gone: no goroutine is left in the engine, reading the body
// or holding it.
func TestOverBudgetUploadsLeaveNoGoroutine(t *testing.T) {
	base := engineGoroutines()
	eng := engine.New(engine.Config{Workers: 2, MaxDocBuffer: 128 << 10, ReadTimeout: 5 * time.Second})
	ts := httptest.NewServer(newServer(eng))
	defer ts.Close()
	target := ts.URL + "/v1/extract?spanner=" + url.QueryEscape(emailFormula)
	refused := 0
	for i := 0; i < 20; i++ {
		resp, err := http.Post(target, "application/octet-stream", io.LimitReader(&countingReader{}, 4<<20))
		if err != nil {
			continue // the connection went down under the upload before the answer was read
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("upload %d: status %d, want 413", i, resp.StatusCode)
		}
		refused++
	}
	if refused < 10 {
		t.Fatalf("only %d of 20 uploads were answered; the test needs the 413 path", refused)
	}
	ts.CloseClientConnections()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); engineGoroutines() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still in the engine after %d refused uploads, %d before them", engineGoroutines(), refused, base)
		}
	}
}
