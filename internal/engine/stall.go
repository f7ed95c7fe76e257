package engine

import (
	"context"
	"io"
	"math"
	"time"
)

// stallReader makes reads of a document stream give up: on a
// read-progress timeout, and when the request's context is done.
// Without it, ExtractReader on a stalled request body (a client that
// opened a streamed upload and then went silent without closing the
// connection) would block the executor worker pulling the stream in Read
// indefinitely and — worse — hold an admission token and the request's
// other workers, waiting their turn to pull, with it. stallReader turns a
// stall into a prompt, typed ErrReadStalled (the daemon maps it to HTTP
// 408), which unwinds the whole request: the pull reports the error, the
// source runs dry, and the workers move on. It is the one reader of a
// request that can outlive the request.
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
	timeout time.Duration
	hint    int // the length the stream declared (Engine.guard); ≤ 0: none

	res     chan stallChunk // pump → consumer, capacity 1 (one chunk of readahead)
	quit    chan struct{}   // closed by stop: the consumer is gone
	timer   *time.Timer     // the progress timeout, re-armed before every wait
	started bool

	cur stallChunk // chunk being consumed; its error, once set, is every later read's
	off int        // consumed prefix of cur.data
}

type stallChunk struct {
	data []byte
	err  error
}

// newStallReader wraps r. A timeout of 0 is no progress timeout: only ctx
// ends a wait.
func newStallReader(ctx context.Context, r io.Reader, timeout time.Duration, hint int) *stallReader {
	if timeout <= 0 {
		timeout = math.MaxInt64
	}
	return &stallReader{ctx: ctx, r: r, timeout: timeout, hint: hint, timer: time.NewTimer(timeout),
		res: make(chan stallChunk, 1), quit: make(chan struct{})}
}

// stop tells the pump its consumer has returned: the pump exits at its
// next hand-over instead of waiting for a receive that will not come.
// Call it exactly once, when nothing will Read again.
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
	var bufs [3][]byte // each made on first use: a short stream ends before the third
	for i, read := 0, 0; ; i = (i + 1) % 3 {
		// A 2 KiB body does not pay for 64 KiB buffers.
		if size := sizedTo(64<<10, s.hint, read); len(bufs[i]) < size {
			bufs[i] = make([]byte, size)
		}
		n, err := s.r.Read(bufs[i])
		read += n
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

// next replaces the exhausted current chunk with the pump's next one,
// waiting up to the timeout for it. A timeout is sticky, like the stream's
// own error: every later read fails with it.
func (s *stallReader) next() error {
	if s.cur.err != nil {
		return s.cur.err
	}
	if !s.started {
		s.started = true
		go s.pump()
	}
	s.timer.Reset(s.timeout) // go.mod ≥ 1.23: no stale tick survives a Reset
	select {
	case s.cur = <-s.res:
		s.off = 0
		return nil
	case <-s.timer.C:
		s.cur, s.off = stallChunk{err: ErrReadStalled}, 0
		return ErrReadStalled
	case <-s.ctx.Done():
		return wrapCtxErr(s.ctx.Err())
	}
}

// Read serves buffered bytes first, then waits for the pump's next
// chunk. A chunk's data and error are delivered in order (data first),
// matching io.Reader semantics.
func (s *stallReader) Read(p []byte) (int, error) {
	for s.off == len(s.cur.data) {
		if err := s.next(); err != nil {
			return 0, err
		}
	}
	n := copy(p, s.cur.data[s.off:])
	s.off += n
	return n, nil
}

// WriteTo hands every pumped chunk straight to w — io.Copy prefers it to
// Read, so a buffered document goes from the pump's buffer into its
// destination without a stop in a third one. The guards are Read's.
func (s *stallReader) WriteTo(w io.Writer) (n int64, err error) {
	for {
		if s.off < len(s.cur.data) {
			m, err := w.Write(s.cur.data[s.off:])
			s.off += m
			n += int64(m)
			if err != nil {
				return n, err
			}
		}
		if err := s.next(); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, err
		}
	}
}
