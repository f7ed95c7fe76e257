package engine

import (
	"context"
	"errors"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// endlessReader never ends and never blocks for long: each Read delivers,
// after pause, up to max bytes of copies of fill. It is the client that
// keeps sending after the server has answered. It accepts read deadlines
// and ignores them (it never blocks past one), so the stall guard wraps it
// whenever a read can be given up on. It is stateless, so it races with
// nothing.
type endlessReader struct {
	fill  string
	max   int
	pause time.Duration
}

func (r endlessReader) Read(p []byte) (int, error) {
	time.Sleep(r.pause)
	p = p[:min(len(p), r.max)]
	for n := 0; n < len(p); {
		n += copy(p[n:], r.fill)
	}
	return len(p), nil
}

func (endlessReader) SetReadDeadline(time.Time) error { return nil }

// waitGoroutines fails unless the goroutine count falls back to base
// within limit: goroutines exit asynchronously, so it polls, but one
// parked for good never leaves.
func waitGoroutines(t *testing.T, base int, limit time.Duration, what string) {
	t.Helper()
	for deadline := time.Now().Add(limit); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines still running, %d before the reads", what, runtime.NumGoroutine(), base)
		}
	}
}

// TestReadsEndedEarlyLeaveNoGoroutine: every way a read can end before its
// stream does — over the size budget, past the deadline, cancelled — on
// the streamed, the buffered and the batch route, through a guarded reader
// that keeps delivering, must leave no goroutine behind: not an executor
// worker, not the guard's AfterFunc.
func TestReadsEndedEarlyLeaveNoGoroutine(t *testing.T) {
	const rounds = 8
	e := New(Config{Workers: 2, MaxDocBuffer: 128 << 10, ReadTimeout: time.Second})
	streamed := mustPlan(t, e, Request{Spanner: emailFormula, Splitter: sentenceFormula})
	buffered := mustPlan(t, e, Request{Spanner: emailFormula})
	batch, _, err := e.PlanBatch(context.Background(), BatchRequest{Spanners: []string{emailFormula}})
	if err != nil {
		t.Fatal(err)
	}
	if !e.WillStream(streamed) || e.WillStream(buffered) {
		t.Fatal("the two plans must take the streamed and the buffered route")
	}
	// One unbroken sentence outgrows the carry-over budget on the streamed
	// route and the document budget on the others; short sentences behind
	// a pause stay inside both until the context ends the read.
	flood := endlessReader{fill: "a", max: 64 << 10}
	drip := endlessReader{fill: emailDoc + " ", max: 1 << 10, pause: time.Millisecond}
	if g, _, stop := e.Guard(context.Background(), flood); g == io.Reader(flood) {
		t.Fatal("the stall guard must wrap a reader with read deadlines when ReadTimeout is set")
	} else {
		stop()
	}
	routes := []struct {
		name string
		read func(context.Context, endlessReader) error
	}{
		{"streamed", func(ctx context.Context, r endlessReader) error {
			_, err := e.ExtractReader(ctx, streamed, r)
			return err
		}},
		{"buffered", func(ctx context.Context, r endlessReader) error {
			_, err := e.ExtractReader(ctx, buffered, r)
			return err
		}},
		{"batch", func(ctx context.Context, r endlessReader) error {
			_, _, err := e.Answer(ctx, batch, "", r)
			return err
		}},
	}
	for _, route := range routes {
		base := runtime.NumGoroutine()
		for i := 0; i < rounds; i++ {
			if err := route.read(context.Background(), flood); !errors.Is(err, ErrDocTooLarge) {
				t.Fatalf("%s: over-budget read returned %v, want ErrDocTooLarge", route.name, err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			if err := route.read(ctx, drip); !errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("%s: read past its deadline returned %v", route.name, err)
			}
			cancel()
			ctx, cancel = context.WithCancel(context.Background())
			time.AfterFunc(5*time.Millisecond, cancel)
			if err := route.read(ctx, drip); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled read returned %v", route.name, err)
			}
		}
		waitGoroutines(t, base, 5*time.Second, route.name)
	}
}

// deadlineConn is a reader with read deadlines, as a request body or a
// net.Conn is: it delivers data, then ends with end or — when end is nil —
// blocks until the deadline last set has passed and fails as a net.Conn
// does, with os.ErrDeadlineExceeded, calling onTimeout first (net/http
// cancels the request inside that Read). It records every deadline set.
type deadlineConn struct {
	data      string
	end       error
	onTimeout func()

	mu        sync.Mutex
	deadlines []time.Time
}

func (c *deadlineConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadlines = append(c.deadlines, t)
	return nil
}

// last is the deadline set last, and how many were set.
func (c *deadlineConn) last() (time.Time, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deadlines[len(c.deadlines)-1], len(c.deadlines)
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	if c.data != "" {
		n := copy(p, c.data)
		c.data = c.data[n:]
		return n, nil
	}
	if c.end != nil {
		return 0, c.end
	}
	for {
		if d, _ := c.last(); !d.IsZero() && !time.Now().Before(d) {
			if c.onTimeout != nil {
				c.onTimeout()
			}
			return 0, os.ErrDeadlineExceeded
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadDeadlineGuard pins the stall guard's contract with a reader's
// read deadlines: which readers it wraps, that it leaves no deadline set
// once a read is over (net/http reads the connection in the background
// from the body's EOF on, and a deadline still set would cancel the
// request), and that it tells a stall from a done context even though
// net/http cancels the context inside the Read that stalled.
func TestReadDeadlineGuard(t *testing.T) {
	e := New(Config{ReadTimeout: 20 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// (a) A reader without read deadlines, and one that refuses them (an
	// httptest.ResponseRecorder's body), are read directly.
	plain := strings.NewReader("doc")
	if g, _, stop := e.Guard(ctx, plain); g != io.Reader(plain) {
		t.Fatalf("a plain reader came back wrapped, as %T", g)
	} else {
		stop()
	}
	refusing := struct {
		io.Reader
		refusingDeadlines
	}{Reader: plain}
	if g, _, stop := e.Guard(ctx, refusing); g != io.Reader(refusing) {
		t.Fatalf("a reader refusing deadlines came back wrapped, as %T", g)
	} else {
		stop()
	}

	// (b) A Read that hits EOF, one that fails, and stop leave the deadline
	// cleared, and a context that ends after stop sets none.
	cleared := func(what string, c *deadlineConn) {
		t.Helper()
		if d, n := c.last(); !d.IsZero() || n < 2 {
			t.Fatalf("%s: %d deadlines set, the last %v; want a deadline per Read and the zero time last", what, n, d)
		}
	}
	for _, end := range []error{io.EOF, io.ErrUnexpectedEOF} {
		ctx, cancel := context.WithCancel(context.Background())
		c := &deadlineConn{data: "some bytes", end: end}
		g, _, stop := e.Guard(ctx, c)
		want := end
		if end == io.EOF {
			want = nil // io.ReadAll's end of a whole read
		}
		if b, err := io.ReadAll(g); string(b) != "some bytes" || err != want {
			t.Fatalf("read %q, %v; want the data and %v", b, err, want)
		}
		cleared("after "+end.Error(), c)
		stop()
		cleared("after stop", c)
		cancel()
		time.Sleep(10 * time.Millisecond) // room for a wrongly registered AfterFunc
		cleared("after the context ended past stop", c)
	}

	// (c) A progress timeout is a stall even though the Read that timed out
	// cancelled the context.
	ctx2, cancel2 := context.WithCancel(context.Background())
	c := &deadlineConn{data: "a few bytes", onTimeout: cancel2}
	g, _, stop := e.Guard(ctx2, c)
	if _, err := io.ReadAll(g); !errors.Is(err, ErrReadStalled) {
		t.Fatalf("progress timeout: %v, want ErrReadStalled", err)
	}
	cleared("after a stall", c)
	stop()

	// (d) A context that ends during a Read ends it with the context's
	// error, long before the progress timeout.
	slow := New(Config{ReadTimeout: time.Minute})
	for _, want := range []error{ErrDeadlineExceeded, context.Canceled} {
		var ctx context.Context
		var cancel context.CancelFunc
		if want == context.Canceled {
			ctx, cancel = context.WithCancel(context.Background())
			time.AfterFunc(20*time.Millisecond, cancel)
		} else {
			ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
		}
		c := &deadlineConn{data: "a few bytes"}
		g, _, stop := slow.Guard(ctx, c)
		if _, err := io.ReadAll(g); !errors.Is(err, want) {
			t.Fatalf("context ended mid-Read: %v, want %v", err, want)
		}
		cleared("after the context ended", c)
		stop()
		cancel()
	}
}

// refusingDeadlines is the SetReadDeadline of a reader that has none.
type refusingDeadlines struct{}

func (refusingDeadlines) SetReadDeadline(time.Time) error { return errors.ErrUnsupported }
