// Command spand is the spanner serving daemon: a long-lived HTTP server
// around the streaming extraction engine of internal/engine. It turns
// the paper's offline pipeline — decide split-correctness once, then
// distribute extraction over segments — into an online service:
//
//	POST /v1/extract   extract a relation from a document. The document
//	                   may be inline JSON, a raw request body, or a
//	                   streamed multipart part. A streamed document is
//	                   segmented incrementally while it uploads, and each
//	                   feed evaluated as one chunk, whenever the plan runs
//	                   chunked (split-correct plan, splitter proven local
//	                   — cut independent — on its automaton, no flags);
//	                   otherwise it is buffered whole, which is sound for
//	                   every splitter.
//	POST /v1/extract-batch
//	                   the same for N spanner formulas in one fused pass;
//	                   a single query is the one-member batch.
//	POST /v1/check     split-correctness / self-splittability /
//	                   disjointness / locality verdicts for a formula
//	                   pair, served from the plan cache.
//	GET  /v1/stats     one consistent JSON snapshot: throughput counters
//	                   (documents total, streamed incrementally and
//	                   evaluated whole, bytes, segments), cache hit rate,
//	                   pool configuration, the pipeline-stage time
//	                   breakdown (plan / segment / eval shares with
//	                   p50/p90/p99, plus the nested merge / localize /
//	                   sim stages and decide, the decision procedures'
//	                   part of plan), split executor statistics,
//	                   and per-endpoint request counts, error counts and
//	                   latency percentiles with the current in-flight
//	                   gauge.
//	GET  /metrics      the same instrumentation in the Prometheus text
//	                   exposition format, for scraping.
//
// The daemon is overload-safe. /v1/extract and /v1/check sit behind a
// token limiter (-admit tokens, a bounded FIFO wait queue of
// -admit-queue entries, at most -admit-wait of queueing); an arrival
// past those bounds is shed with 429 + Retry-After instead of queueing
// invisibly. -deadline bounds each admitted request end to end (queue
// wait, planning, segmentation, evaluation → 504), -read-timeout
// bounds upload progress (stalled body → 408), -max-doc bounds
// buffered document memory (→ 413), and -req-workers caps how much of
// the evaluation pool one request may occupy. /v1/stats and /metrics
// stay un-gated so the daemon remains observable while saturated;
// -pprof <addr> adds net/http/pprof on a listener of its own. On
// SIGTERM or SIGINT the daemon stops accepting, gives in-flight
// requests -drain to finish, then cancels the stragglers' contexts —
// an admitted request always gets either its result or an explicit
// error.
//
// An inline JSON body is read once, through the same stall guard as a
// streamed document, into one buffer sized from its Content-Length (64
// MiB at most, else 413), and decoded in one pass with encoding/json's
// observable behaviour; every answer but /v1/stats is appended into one
// buffer, byte for byte what encoding/json would write.
//
// A successful extraction responds with the plan section — strategy
// (what the verdicts justify), verdicts, cache_hit, plan_compile_ms —
// plus ingest ("inline", "streamed" or "buffered"), execution (what ran
// for this document: "split" on the executor, "chunked" — the same at
// chunk grain, where the splitter is proven cut-independent — or "whole"
// on the request goroutine when the plan is sequential or the document
// too small to amortise the executor), vars, count and the tuples as
// arrays of 1-based [start, end) spans:
//
//	{"strategy":"split-parallel",
//	 "verdicts":{"disjoint":"yes","self_splittable":"yes","local":"yes"},
//	 "cache_hit":false, "plan_compile_ms":1.234, "ingest":"inline",
//	 "execution":"whole",
//	 "vars":["y"], "count":2, "tuples":[[[6,21]],[[26,34]]]}
//
// Example:
//
//	spand -addr :8080 &
//	curl -s localhost:8080/v1/extract -H 'Content-Type: application/json' \
//	  -d '{"spanner":"(.*[^a-z0-9])?(y{[a-z0-9]+@[a-z0-9]+})([^a-z0-9].*)?",
//	       "splitter":"(x{[^.!?\\n]*})([.!?\\n][^.!?\\n]*)*|[^.!?\\n]*([.!?\\n][^.!?\\n]*)*[.!?\\n](x{[^.!?\\n]*})([.!?\\n][^.!?\\n]*)*",
//	       "doc":"mail ann@example. or bob@host!"}'
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
)

// daemon bundles a configured HTTP server with the hooks the drain
// state machine needs: the cancel function behind every request's
// BaseContext, and the drain deadline. Factored out of main so the
// drain path is testable without a process and a real SIGTERM.
type daemon struct {
	srv        *http.Server
	cancelBase context.CancelFunc
	drain      time.Duration
}

// newDaemon wires an engine, an optional limiter and the serving policy
// into a drainable HTTP server.
func newDaemon(addr string, eng *engine.Engine, cfg serverConfig, drain time.Duration) *daemon {
	base, cancel := context.WithCancel(context.Background())
	return &daemon{
		srv: &http.Server{
			Addr:              addr,
			Handler:           newServerWith(eng, cfg),
			ReadHeaderTimeout: 10 * time.Second,
			BaseContext:       func(net.Listener) context.Context { return base },
		},
		cancelBase: cancel,
		drain:      drain,
	}
}

// shutdown runs the graceful-drain state machine:
//
//  1. draining — stop accepting new connections; in-flight requests run
//     to completion under the drain deadline. The admission queue
//     drains naturally: queued requests still get tokens as in-flight
//     ones release them.
//  2. cancelling — requests still running when the deadline fires have
//     their contexts cancelled (via BaseContext) and the server closes.
//     They observe context.Canceled and unwind through the normal typed
//     error paths.
//
// An admitted request is therefore never silently dropped: it either
// finishes inside the drain window or gets an explicit error response.
func (d *daemon) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), d.drain)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	// Nothing is in flight any more (tidy up the base context), or the
	// drain deadline passed: cancel every in-flight request's context and
	// tear the connections down.
	d.cancelBase()
	if err == nil {
		return nil
	}
	closeErr := d.srv.Close()
	if closeErr != nil && !errors.Is(closeErr, http.ErrServerClosed) {
		return closeErr
	}
	return err
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "evaluation workers (0 = GOMAXPROCS)")
		reqWork   = flag.Int("req-workers", 0, "executor workers any one request may use (0 = auto: ceil(2*workers/admit), so concurrent requests share the pool fairly; negative = uncapped)")
		batch     = flag.Int("batch", 16, "segments per executor task on the per-segment route — a licensed splitter not proven cut-independent — for inline and buffered documents alike (the chunked route deals one chunk per task; documents too small to amortise the executor are evaluated whole)")
		cacheSize = flag.Int("cache", 128, "plan cache capacity (entries, all tenants)")
		cacheMB   = flag.Int64("cache-bytes", 0, "plan cache budget in bytes of estimated plan cost (0 = 64 MiB, negative = unlimited)")
		tenPlans  = flag.Int("tenant-plans", 0, "per-tenant plan cache entry quota (0 = no carve-up)")
		tenBytes  = flag.Int64("tenant-plan-bytes", 0, "per-tenant plan cache byte quota (0 = no carve-up)")
		tenHdr    = flag.String("tenant-header", "X-Tenant", "HTTP header carrying the tenant key for cache quotas (empty disables tenant attribution)")
		chunk     = flag.Int("chunk", 64<<10, "streaming read size in bytes")
		limit     = flag.Int("limit", 0, "decision-procedure state limit (0 = library default)")
		deadline  = flag.Duration("deadline", 0, "per-request deadline covering queue wait, planning and evaluation; exceeding it answers 504 (0 = none)")
		readTmo   = flag.Duration("read-timeout", 30*time.Second, "read-progress timeout on request bodies; a stalled upload answers 408 (0 = none)")
		admit     = flag.Int("admit", 0, "concurrent requests admitted to /v1/extract and /v1/check (0 = GOMAXPROCS; negative disables admission control)")
		admitQ    = flag.Int("admit-queue", 0, "admission wait-queue capacity; arrivals beyond it answer 429 (0 = 4*admit, negative = no queue)")
		admitWait = flag.Duration("admit-wait", 500*time.Millisecond, "max time a request may wait for admission before a 429")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-drain budget on SIGTERM: in-flight requests get this long to finish before their contexts are cancelled")
		maxDoc    = flag.Int64("max-doc", 0, "per-document memory budget in bytes (0 = 256 MiB, negative = unlimited)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address, on its own listener and never on -addr (empty = off), e.g. 127.0.0.1:6060")
	)
	flag.Parse()

	var lim *admission.Limiter
	tokens := *admit
	if tokens == 0 {
		tokens = runtime.GOMAXPROCS(0)
	}
	if *admit >= 0 {
		lim = admission.New(admission.Config{Tokens: tokens, Queue: *admitQ, MaxWait: *admitWait})
	}
	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	requestWorkers := *reqWork
	if requestWorkers == 0 && lim != nil {
		// With T requests executing concurrently, give each a budget of
		// ceil(2W/T): enough spare to soak up idle cores when the daemon
		// is quiet, small enough that one huge document cannot starve the
		// other admitted requests.
		requestWorkers = (2*nWorkers + tokens - 1) / tokens
	}

	eng := engine.New(engine.Config{
		PlanCache:       *cacheSize,
		PlanCacheBytes:  *cacheMB,
		TenantPlans:     *tenPlans,
		TenantPlanBytes: *tenBytes,
		Workers:         nWorkers,
		RequestWorkers:  requestWorkers, // ≤ 0: uncapped, the engine's default
		Batch:           *batch,
		ChunkSize:       *chunk,
		StateLimit:      *limit,
		MaxDocBuffer:    *maxDoc,
		ReadTimeout:     *readTmo,
	})
	d := newDaemon(*addr, eng, serverConfig{
		limiter:      lim,
		deadline:     *deadline,
		tenantHeader: *tenHdr,
	}, *drain)

	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	} else {
		// Linking net/http/pprof keeps runtime.MemProfile reachable, and with
		// it the runtime's heap sampling (a stack per 512 KiB allocated, a
		// 1.4 MiB bucket table): 1–2 MiB resident on every BENCHMARK.json
		// workload, for a profile nobody can fetch.
		runtime.MemProfileRate = 0
	}
	go func() {
		st := eng.Stats()
		if lim != nil {
			log.Printf("spand: listening on %s (workers=%d req-workers=%d admit=%d queue=%d batch=%d cache=%d)",
				*addr, st.Workers, st.RequestWorkers, lim.Tokens(), lim.QueueCap(), *batch, *cacheSize)
		} else {
			log.Printf("spand: listening on %s (workers=%d batch=%d cache=%d, admission disabled)",
				*addr, st.Workers, *batch, *cacheSize)
		}
		if err := d.srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("spand: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Printf("spand: draining (budget %s)", *drain)
	if err := d.shutdown(); err != nil {
		log.Printf("spand: drain: %v", err)
	}
	st := eng.Stats()
	log.Printf("spand: served %d documents, %d bytes, %d segments on the per-segment route; cache hit rate %.2f",
		st.Documents, st.Bytes, st.Segments, st.PlanCache.HitRate)
}
