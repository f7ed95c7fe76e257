package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// endlessReader never ends and never blocks for long: each Read delivers,
// after pause, up to max bytes of copies of fill. It is the client that
// keeps sending after the server has answered — the case in which a pump
// that can only hand chunks to its consumer parks forever. It is
// stateless, so the reads a pump makes after its consumer returned race
// with nothing.
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

// pumpGoroutines counts the goroutines currently inside stallReader.pump.
func pumpGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "stallReader).pump")
}

// waitPumps fails unless the pump count falls back to base: goroutines
// exit asynchronously, so it polls, but a parked pump never leaves.
func waitPumps(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pumpGoroutines() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d stallReader pump goroutines still alive, %d before the reads", what, pumpGoroutines(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReaderPumpStopsWithItsConsumer: every way a read can end before its
// stream does — over the size budget, past the deadline, cancelled — on
// the streamed, the buffered and the batch route, through a reader that
// keeps delivering, must leave no pump goroutine behind. Before the pump
// had a stop channel each such read leaked one, with its buffers and the
// request body, for the life of the process.
func TestReaderPumpStopsWithItsConsumer(t *testing.T) {
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
		base := pumpGoroutines()
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
		waitPumps(t, base, route.name)
	}
}
