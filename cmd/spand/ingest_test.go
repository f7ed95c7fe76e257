package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// engineGoroutines counts the goroutines running engine code: a request
// whose body Read the engine could not give up on stays among them.
func engineGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "repro/internal/engine.") {
			n++
		}
	}
	return n
}

// TestDeclaredOverBudgetUploadIs413Unread: a raw body whose
// Content-Length is already over -max-doc is refused before it is read,
// on both endpoints. It used to be buffered up to the budget first — a
// 1 GiB upload pinned 256 MiB and an admission token on its way to the
// same 413. The handler is called directly so the count is the server's
// reads alone. (TestOverBudgetUploadsLeaveNoGoroutine is the undeclared
// twin: a chunked body can only be measured as it arrives.)
func TestDeclaredOverBudgetUploadIs413Unread(t *testing.T) {
	h := newServer(engine.New(engine.Config{Workers: 2, MaxDocBuffer: 128 << 10, ReadTimeout: time.Second}))
	q := url.Values{"spanner": {emailFormula}}.Encode()
	for _, endpoint := range []string{"/v1/extract", "/v1/extract-batch"} {
		body := &countingReader{}
		req := httptest.NewRequest("POST", endpoint+"?"+q, body)
		req.ContentLength = 1 << 30
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d (%s), want 413", endpoint, rec.Code, rec.Body)
		}
		if rec.Header().Get("Connection") != "close" {
			t.Errorf("%s: 413 without Connection: close — the server would drain the gigabyte it refused", endpoint)
		}
		if body.n != 0 {
			t.Errorf("%s: read %d bytes of a body declared over the budget, want none", endpoint, body.n)
		}
	}
}

// TestDeclaredLengthReservesAtMostPresize: a Content-Length is a claim
// that costs its sender nothing. A request that declares the whole
// -max-doc budget (256 MiB by default), sends one byte and goes silent is
// answered 408 after -read-timeout like any stalled upload, leaves no
// goroutine in the engine behind, and made the daemon allocate no more
// than the engine's presize bound (16 MiB) on the strength of the
// declaration. A multipart doc part declares nothing and stalls to the
// same 408.
func TestDeclaredLengthReservesAtMostPresize(t *testing.T) {
	const maxDoc, presize = 256 << 20, 16 << 20
	base := engineGoroutines()
	eng := engine.New(engine.Config{Workers: 2, ReadTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(newServer(eng))
	defer ts.Close()
	target := ts.URL + "/v1/extract?spanner=" + url.QueryEscape(emailFormula)

	// stalled posts a body that delivers head and then nothing; the silence
	// ends after 3 s whatever happens, so a daemon that sits the stall out
	// answers — with a status the test rejects — instead of hanging it.
	stalled := func(what, contentType string, declared int64, head string) {
		t.Helper()
		pr, pw := io.Pipe()
		defer pw.Close()
		defer time.AfterFunc(3*time.Second, func() { pw.Close() }).Stop()
		go io.WriteString(pw, head)
		req, _ := http.NewRequest("POST", target, pr)
		req.ContentLength = declared
		req.Header.Set("Content-Type", contentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusRequestTimeout {
			t.Fatalf("%s: status = %d (%s), want 408", what, resp.StatusCode, b)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stalled("raw body declaring -max-doc", "application/octet-stream", maxDoc, "x")
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= presize+1<<20 {
		t.Errorf("a declared %d-byte body that sent one byte made the daemon allocate %d bytes, want < presize + 1 MiB", maxDoc, grew)
	}

	var form strings.Builder
	mw := multipart.NewWriter(&form)
	mw.WriteField("spanner", emailFormula)
	mw.CreateFormFile("doc", "doc.txt")
	stalled("multipart doc part", mw.FormDataContentType(), -1, form.String()+"some bytes, then silence. ")

	ts.CloseClientConnections()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); engineGoroutines() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still in the engine after the stalled uploads, %d before them", engineGoroutines(), base)
		}
	}
}

// TestTruncatedAndEmptyBodies: a document that ends early — a raw body
// short of its Content-Length, a multipart doc part without its closing
// boundary — is the client's fault: 400 with Connection: close, or
// http_status 400 in a multipart response's epilogue, on both extraction
// endpoints. An empty document is no fault at all: 0-byte raw, multipart
// and inline documents answer 200 with no tuples. Each request goes
// through net/http's own parser, whose body reports a short Content-Length
// as io.ErrUnexpectedEOF, and then straight to the handler.
func TestTruncatedAndEmptyBodies(t *testing.T) {
	h := newServer(engine.New(engine.Config{Workers: 2}))
	single := "/v1/extract?" + url.Values{"spanner": {emailFormula}, "splitter": {sentenceFormula}}.Encode()
	batch := "/v1/extract-batch?" + url.Values{"spanner": {emailFormula}}.Encode()
	// form is a multipart request with the formulas and doc, its closing
	// boundary left off unless closed.
	form := func(doc string, closed bool) (ctype, body string) {
		var b strings.Builder
		mw := multipart.NewWriter(&b)
		mw.WriteField("spanner", emailFormula)
		mw.WriteField("splitter", sentenceFormula)
		fw, _ := mw.CreateFormFile("doc", "doc.txt")
		io.WriteString(fw, doc)
		if closed {
			mw.Close()
		}
		return mw.FormDataContentType(), b.String()
	}
	const raw = "application/octet-stream"
	long := strings.Repeat(testDoc+" ", 2000) // 134 KB: streamed
	type request struct {
		name, target, ctype, body string
		short                     int // bytes missing from the declared Content-Length
		multipart                 bool
	}
	var truncated []request
	for _, doc := range []string{testDoc, long} {
		ctype, body := form(doc, false)
		truncated = append(truncated,
			request{fmt.Sprintf("extract, raw, %d bytes", len(doc)), single, raw, doc, 1, false},
			request{fmt.Sprintf("extract-batch, raw, %d bytes", len(doc)), batch, raw, doc, 1, false},
			request{fmt.Sprintf("extract, multipart, %d bytes", len(doc)), single, ctype, body, 0, false},
			request{fmt.Sprintf("extract, raw, %d bytes, multipart response", len(doc)), single, raw, doc, 1, true},
			request{fmt.Sprintf("extract-batch, raw, %d bytes, multipart response", len(doc)), batch, raw, doc, 1, true})
	}
	formType, emptyForm := form("", true)
	inline, _ := json.Marshal(extractRequest{Spanner: emailFormula, Splitter: sentenceFormula})
	inlineBatch, _ := json.Marshal(extractBatchRequest{Spanners: []string{emailFormula}})
	empty := []request{
		{"extract, raw", single, raw, "", 0, false},
		{"extract-batch, raw", batch, raw, "", 0, false},
		{"extract, multipart", single, formType, emptyForm, 0, false},
		{"extract, inline", "/v1/extract", "application/json", string(inline), 0, false},
		{"extract-batch, inline", "/v1/extract-batch", "application/json", string(inlineBatch), 0, false},
	}
	serve := func(c request) *http.Response {
		t.Helper()
		head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: spand\r\nContent-Type: %s\r\nContent-Length: %d\r\n", c.target, c.ctype, len(c.body)+c.short)
		if c.multipart {
			head += "Accept: multipart/mixed\r\n"
		}
		req, err := http.ReadRequest(bufio.NewReader(strings.NewReader(head + "\r\n" + c.body)))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Result()
	}
	for _, c := range truncated {
		resp := serve(c)
		if c.multipart {
			var end epilogue
			if err := json.Unmarshal(readMultipartResponse(t, resp)["end"], &end); err != nil || end.Status != "error" || end.HTTPStatus != http.StatusBadRequest {
				t.Errorf("%s: epilogue %+v (err %v), want an error with http_status 400", c.name, end, err)
			}
			continue
		}
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("Connection") != "close" {
			t.Errorf("%s: status %d, Connection %q (%s); want 400 and close", c.name, resp.StatusCode, resp.Header.Get("Connection"), b)
		}
	}
	for _, c := range empty {
		resp := serve(c)
		b, _ := io.ReadAll(resp.Body)
		var out struct {
			Count   *int
			Queries []struct{ Count int }
		}
		if err := json.Unmarshal(b, &out); err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d (%s), want 200", c.name, resp.StatusCode, b)
			continue
		}
		if (out.Count == nil || *out.Count != 0) && (len(out.Queries) != 1 || out.Queries[0].Count != 0) {
			t.Errorf("%s: %s, want count 0", c.name, b)
		}
	}
}

// TestPprofStaysOffTheServicePort: -pprof serves net/http/pprof from a
// mux and a listener of its own; the service port never answers for it,
// with the flag or without.
func TestPprofStaysOffTheServicePort(t *testing.T) {
	get := func(h http.Handler) int {
		ts := httptest.NewServer(h)
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(newServer(engine.New(engine.Config{Workers: 2}))); code != http.StatusNotFound {
		t.Errorf("service port: GET /debug/pprof/ = %d, want 404", code)
	}
	if code := get(pprofMux()); code != http.StatusOK {
		t.Errorf("pprof listener: GET /debug/pprof/ = %d, want 200", code)
	}
}
