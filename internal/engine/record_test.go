package engine

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// TestBusyShareCountsRunWorkers: busy_share divides busy worker time by
// each run's wall time × that run's own worker count. A document of one
// chunk runs on one worker, busy nearly all of its run, so the share is
// close to 1 — not the quarter an engine of four workers would make it
// if the denominator took the engine's worker count.
func TestBusyShareCountsRunWorkers(t *testing.T) {
	e := New(Config{Workers: 4})
	plan := reviewPlan()
	doc := reviewDoc(1, 40<<10) // past breakEven, inside one ChunkSize chunk
	if _, x, err := e.Answer(context.Background(), plan, doc, nil); err != nil || x != ExecChunked {
		t.Fatalf("route %v, err %v; want chunked", x, err)
	}
	st := e.Stats().Executor
	if st.Runs != 1 || st.Chunks != 1 {
		t.Fatalf("executor = %+v, want one run of one chunk", st)
	}
	if st.BusyShare <= 0.5 {
		t.Fatalf("busy_share = %v for a one-worker run, want > 0.5", st.BusyShare)
	}
}

// cancellingReader delivers its document's first n bytes in 16 KiB reads,
// and on the read after them cancels the request and fails, as net/http
// does inside a body Read that fails. It has no read deadline, so the pull
// reads it directly: by then the pull has counted all that was delivered.
type cancellingReader struct {
	doc       string
	n         int
	delivered int
	cancel    func()
}

func (r *cancellingReader) Read(p []byte) (int, error) {
	if r.delivered < r.n {
		k := copy(p, r.doc[r.delivered:min(r.n, r.delivered+16<<10)])
		r.delivered += k
		return k, nil
	}
	r.cancel()
	return 0, io.ErrUnexpectedEOF
}

// TestStreamCancelledMidDocumentCountsOnce cancels a streamed document in
// its middle through Answer, twice: on a reader that fails once the
// request is cancelled, and on the server end of a net.Pipe whose client
// sent the same bytes and went silent, so that the stall guard gives up
// on the Read the pull is blocked in through its read deadline. Either way
// the document counts once, its bytes are what the reader delivered, and
// nothing outlives the request.
func TestStreamCancelledMidDocumentCountsOnce(t *testing.T) {
	plan := reviewPlan()
	doc := reviewDoc(1, 256<<10)
	settled := func(e *Engine, delivered, base int) {
		t.Helper()
		// The workers, the pipe's writer and the guard's AfterFunc are
		// gone once the goroutine count is back where it was.
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines still running, %d before the request", runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
		st := e.Stats()
		if st.Documents != 1 || st.StreamedDocs != 1 || st.ChunkedDocs != 1 {
			t.Fatalf("documents %d, streamed %d, chunked %d; want 1 each", st.Documents, st.StreamedDocs, st.ChunkedDocs)
		}
		if st.Bytes != uint64(delivered) {
			t.Fatalf("bytes = %d, the reader delivered %d", st.Bytes, delivered)
		}
		if seg := st.Stages["segment"].Count; seg != 1 {
			t.Fatalf("segment stage recorded %d times, want once", seg)
		}
	}

	e := New(Config{Workers: 2})
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &cancellingReader{doc: doc, n: 96 << 10, cancel: cancel}
	_, x, err := e.Answer(ctx, plan, "", r)
	if !errors.Is(err, context.Canceled) || x != ExecChunked {
		t.Fatalf("route %v, err %v; want chunked and cancelled", x, err)
	}
	settled(e, r.delivered, base)

	e = New(Config{Workers: 2})
	base = runtime.NumGoroutine()
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	pr, pw := net.Pipe()
	defer pr.Close()
	go func() {
		// A net.Pipe Write returns once the reader has taken every byte.
		io.WriteString(pw, doc[:96<<10])
		cancel()
	}()
	if _, x, err := e.Answer(ctx, plan, "", pr); !errors.Is(err, context.Canceled) || x != ExecChunked {
		t.Fatalf("route %v, err %v; want chunked and cancelled", x, err)
	}
	pw.Close()
	settled(e, 96<<10, base)
}
