package engine

import (
	"context"
	"io"
	"time"
)

// stallReader makes reads of a document stream give up: on a
// read-progress timeout, and when the request's context is done.
// Before it existed, ExtractReader on a stalled request body (a client
// that opened a streamed upload and then went silent without closing
// the connection) blocked its producer goroutine in Read indefinitely
// and — worse — held an admission token and the request's executor
// workers with it. stallReader turns a stall into a prompt, typed
// ErrReadStalled (the daemon maps it to HTTP 408), which unwinds the
// whole request: the producer reports the error, the dispatch channel
// closes, and the workers move on.
//
// An arbitrary io.Reader cannot be interrupted mid-Read, so the
// underlying reads run on a pump goroutine and the consumer waits for
// either data or the timeout. The pump rotates three fixed buffers
// (see pump for why three) — the consumer's unconsumed remainder is
// never overwritten, and steady-state operation allocates nothing. On a
// timeout the pump goroutine stays parked in the underlying Read until
// that read returns (for an HTTP body, when the server tears the
// request down); it then exits without touching the consumer again. A
// done context ends a wait the same way, with the context's error — the
// engine reads a small document's bytes on the request goroutine, and a
// cancelled request must return even if its reader never does.
//
// Whoever creates a stallReader calls stop on every return path. A
// consumer that leaves before the stream ends — over the size budget,
// past its deadline, cancelled — receives nothing more, and a pump that
// could only hand its chunks to the consumer would park on the second
// one for the life of the process, pinning its buffers and the body.
type stallReader struct {
	ctx     context.Context
	r       io.Reader
	timeout time.Duration // 0: no progress timeout, only ctx ends a wait

	res     chan stallChunk // pump → consumer, capacity 1 (one chunk of readahead)
	quit    chan struct{}   // closed by stop: the consumer is gone
	started bool
	stalled bool // sticky: once timed out, every Read fails

	cur  stallChunk // chunk currently being consumed
	off  int        // consumed prefix of cur.data
	done bool       // cur.err was delivered; underlying stream is finished
}

type stallChunk struct {
	data []byte
	err  error
}

// newStallReader wraps r.
func newStallReader(ctx context.Context, r io.Reader, timeout time.Duration) *stallReader {
	return &stallReader{ctx: ctx, r: r, timeout: timeout, res: make(chan stallChunk, 1), quit: make(chan struct{})}
}

// stop tells the pump its consumer has returned: the pump exits at its
// next hand-over instead of waiting for a receive that will not come.
// Call it exactly once, when nothing will Read again unless its context
// is done (RunReader's producer outlives it only then).
func (s *stallReader) stop() { close(s.quit) }

// pump owns the underlying reader, rotating through three buffers.
// Three, not two: at any instant the consumer may hold chunk k, the
// capacity-1 channel chunk k+1, and the pump is reading chunk k+2 — so
// buffer k is reusable only at chunk k+3. The channel provides the
// proof: the send of chunk k+2 completes only after the consumer took
// chunk k+1, and the consumer takes a chunk only after it exhausted the
// previous one, so by the time the pump starts chunk k+3 the consumer's
// last read of buffer k happened-before it.
func (s *stallReader) pump() {
	const bufSize = 64 << 10
	var bufs [3][]byte // each made on first use: a short stream ends before the third
	for i := 0; ; i = (i + 1) % 3 {
		if bufs[i] == nil {
			bufs[i] = make([]byte, bufSize)
		}
		n, err := s.r.Read(bufs[i])
		select {
		case s.res <- stallChunk{data: bufs[i][:n], err: err}:
		case <-s.quit:
			return
		}
		if err != nil {
			return
		}
	}
}

// Read serves buffered bytes first, then waits up to the timeout for
// the pump's next chunk. A chunk's data and error are delivered in
// order (data first), matching io.Reader semantics.
func (s *stallReader) Read(p []byte) (int, error) {
	if s.stalled {
		return 0, ErrReadStalled
	}
	if !s.started {
		s.started = true
		go s.pump()
	}
	for s.off == len(s.cur.data) {
		if s.done {
			return 0, s.cur.err
		}
		if s.cur.err != nil {
			s.done = true
			return 0, s.cur.err
		}
		var timeout <-chan time.Time
		if s.timeout > 0 {
			timeout = time.After(s.timeout)
		}
		select {
		case c := <-s.res:
			s.cur, s.off = c, 0
		case <-timeout:
			s.stalled = true
			return 0, ErrReadStalled
		case <-s.ctx.Done():
			return 0, wrapCtxErr(s.ctx.Err())
		}
	}
	n := copy(p, s.cur.data[s.off:])
	s.off += n
	return n, nil
}
