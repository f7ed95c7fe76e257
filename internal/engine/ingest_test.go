package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/corpus"
	"repro/internal/library"
)

// sequentialPlan is the large-sparse-seq workload's plan, hand-built:
// negative sentiment with no splitter, so every stream is buffered.
func sequentialPlan() *Plan { return &Plan{p: library.NegativeSentiment()} }

// sparseDoc returns a sparse-sentiment corpus cut to exactly n bytes.
func sparseDoc(n int) string { return corpus.SparseSentiment(1, n, 64<<10)[:n] }

// declaring is a stream that declares size as its length, whatever it
// then delivers.
type declaring struct {
	io.Reader
	size int
}

func (d declaring) Len() int { return d.size }

// unsized hides a reader's Len (and its WriteTo): a chunked upload.
type unsized struct{ io.Reader }

// BenchmarkIngestBuffered times the buffered ingest route end to end — a
// sequential plan's ExtractReader on a *strings.Reader, as bench/ runs it:
// read directly, since it has no read deadlines for the stall guard to set
// (spand's request body has) — on sparse text, where evaluation is the
// small part:
//
//	go test -run '^$' -bench IngestBuffered -benchmem ./internal/engine
//
// sized is a *strings.Reader, whose Len the route sizes its one buffer
// from (a request body with a Content-Length); unsized hides it (a
// chunked upload), so the buffer doubles. 16 MiB + 1 is the first length
// presize does not cover. DESIGN.md ("Buffered ingestion") quotes the rows.
func BenchmarkIngestBuffered(b *testing.B) {
	e := New(Config{ReadTimeout: time.Minute})
	plan := sequentialPlan()
	ctx := context.Background()
	for _, n := range []int{2 << 10, 256 << 10, 2 << 20, presize + 1} {
		doc := sparseDoc(n)
		want, err := e.Extract(ctx, plan, doc)
		if err != nil {
			b.Fatal(err)
		}
		readers := []struct {
			name string
			open func() io.Reader
		}{
			{"sized", func() io.Reader { return strings.NewReader(doc) }},
			{"unsized", func() io.Reader { return unsized{strings.NewReader(doc)} }},
		}
		for _, r := range readers {
			b.Run(fmt.Sprintf("%dKiB/%s", n>>10, r.name), func(b *testing.B) {
				b.SetBytes(int64(len(doc)))
				b.ReportAllocs()
				for b.Loop() {
					rel, err := e.ExtractReader(ctx, plan, r.open())
					if err != nil {
						b.Fatal(err)
					}
					if rel.Len() != want.Len() {
						b.Fatalf("%d tuples, Extract found %d", rel.Len(), want.Len())
					}
				}
			})
		}
	}
}

// TestDeclaredOverBudgetIsRefusedUnread: a buffered-route stream whose
// declared length is already over MaxDocBuffer fails before its first
// Read. It used to be buffered up to the budget and refused then — a
// 1 GiB upload with a Content-Length cost 256 MiB before its 413.
func TestDeclaredOverBudgetIsRefusedUnread(t *testing.T) {
	e := New(Config{Workers: 2, MaxDocBuffer: 1 << 10, ReadTimeout: time.Second})
	ctx := context.Background()
	batch := mustPlanBatch(t, e, BatchRequest{Spanners: []string{emailFormula}})
	unread := declaring{iotest.ErrReader(errors.New("the refused stream was read")), 1<<10 + 1}
	if _, err := e.ExtractReader(ctx, sequentialPlan(), unread); !errors.Is(err, ErrDocTooLarge) {
		t.Errorf("ExtractReader: %v, want ErrDocTooLarge", err)
	}
	if _, _, err := e.Answer(ctx, batch, "", unread); !errors.Is(err, ErrDocTooLarge) {
		t.Errorf("Answer on a batch stream: %v, want ErrDocTooLarge", err)
	}
	// At the budget exactly the declaration is admitted, and what arrives is
	// measured as before: one byte more than declared is one byte too many.
	doc := strings.Repeat("x", 1<<10)
	if _, err := e.ExtractReader(ctx, sequentialPlan(), strings.NewReader(doc)); err != nil {
		t.Errorf("a document of exactly MaxDocBuffer bytes: %v", err)
	}
	if _, err := e.ExtractReader(ctx, sequentialPlan(), declaring{strings.NewReader(doc + "x"), 1 << 10}); !errors.Is(err, ErrDocTooLarge) {
		t.Errorf("a stream longer than it declared and than the budget: %v, want ErrDocTooLarge", err)
	}
}

// TestBufferStaysWithinBudget: the doubling that grows an unsized
// stream's buffer stops at MaxDocBuffer. Unclamped, a 70 KiB upload under
// a 96 KiB budget grows 64 → 128 KiB, and a 70 MiB one under 100 MiB
// 64 → 128 MiB. The budget is a multiple of the allocator's 8 KiB page, so
// rounding the allocation up to its size class lands on the budget itself.
func TestBufferStaysWithinBudget(t *testing.T) {
	const budget = 96 << 10
	for _, n := range []int{70 << 10, budget} {
		d := docBuffer{ctx: context.Background(), max: budget, b: new(strings.Builder)}
		if _, err := io.Copy(&d, unsized{strings.NewReader(strings.Repeat("x", n))}); err != nil {
			t.Fatalf("%d bytes: %v", n, err)
		}
		if d.b.Len() != n || d.b.Cap() > budget {
			t.Fatalf("%d bytes: buffered %d with capacity %d, want at most the %d-byte budget", n, d.b.Len(), d.b.Cap(), budget)
		}
	}
}

// TestSizeHintIsOnlyAHint: whatever a stream declares — too little, too
// much, nothing, nonsense — the buffered routes (and the streamed one,
// which sizes its read buffer by it) return the relation Extract returns
// on the bytes that actually arrive, however the reads deliver them.
func TestSizeHintIsOnlyAHint(t *testing.T) {
	e := New(Config{Workers: 2, ReadTimeout: 5 * time.Second})
	ctx := context.Background()
	plan := mustPlan(t, e, Request{Spanner: emailFormula}) // sequential: buffers
	streamed := mustPlan(t, e, Request{Spanner: emailFormula, Splitter: sentenceFormula})
	if e.WillStream(plan) || !e.WillStream(streamed) {
		t.Fatal("the two plans must take the buffered and the streamed route")
	}
	batch := mustPlanBatch(t, e, BatchRequest{Spanners: []string{emailFormula, "(.*[^a-z])?(w{[a-z]+})([^a-z].*)?"}})
	doc := strings.Repeat(emailDoc+" ", (80<<10)/len(emailDoc)) // past breakEven and one 64 KiB read
	want, err := e.Extract(ctx, plan, doc)
	if err != nil || want.Len() == 0 {
		t.Fatalf("Extract: %d tuples, %v", want.Len(), err)
	}
	wantBatch, err := e.ExtractBatch(ctx, batch, doc)
	if err != nil {
		t.Fatal(err)
	}
	reads := []struct {
		name string
		open func() io.Reader
	}{
		{"1", func() io.Reader { return iotest.OneByteReader(strings.NewReader(doc)) }},
		{"7", func() io.Reader { return &fixedChunkReader{s: doc, n: 7} }},
		{"65536", func() io.Reader { return strings.NewReader(doc) }},
		{"data+EOF", func() io.Reader { return iotest.DataErrReader(strings.NewReader(doc)) }},
	}
	hints := []int{1, len(doc) - 1, len(doc), len(doc) + 1, presize + 1, 0, -1}
	for _, p := range reads {
		for _, hint := range hints {
			if len(p.name) == 1 && hint != 1 {
				continue // a hand-over per byte or seven: the hint voided at once is enough
			}
			name := fmt.Sprintf("reads of %s, declared %d of %d", p.name, hint, len(doc))
			open := func() io.Reader { return declaring{p.open(), hint} }
			got, err := e.ExtractReader(ctx, plan, open())
			if err != nil {
				t.Fatalf("%s: ExtractReader: %v", name, err)
			}
			sameTuples(t, name, got, want)
			if got, err = e.ExtractReader(ctx, streamed, open()); err != nil {
				t.Fatalf("%s: streamed ExtractReader: %v", name, err)
			}
			sameTuples(t, name+", streamed", got, want)
			gotBatch, _, err := e.Answer(ctx, batch, "", open())
			if err != nil {
				t.Fatalf("%s: Answer on a batch stream: %v", name, err)
			}
			for i := range wantBatch {
				sameTuples(t, fmt.Sprintf("%s, query %d", name, i), gotBatch[i].Rel, wantBatch[i].Rel)
			}
		}
	}
}

// TestUnderReportedLengthBuysNoSmallReads: a buffered stream that declares
// less than it sends is read in buffers of its declared size only until it
// passes that size, then in io.Copy's 32 KiB — declaring 1 byte does not
// turn a 256 KiB upload into 128 Ki two-byte reads.
func TestUnderReportedLengthBuysNoSmallReads(t *testing.T) {
	e := New(Config{Workers: 2})
	doc := sparseDoc(256 << 10)
	r := &readCounter{r: strings.NewReader(doc)}
	got, err := e.ExtractReader(context.Background(), sequentialPlan(), declaring{r, 1})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := e.Extract(context.Background(), sequentialPlan(), doc)
	sameTuples(t, "declared 1", got, want)
	if r.reads > 16 {
		t.Errorf("%d Reads for a %d-byte stream that declared 1, want ≤ 16", r.reads, len(doc))
	}
}

// readCounter counts the Reads made of r.
type readCounter struct {
	r     io.Reader
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}
