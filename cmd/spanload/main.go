// Command spanload drives concurrent load against a running spand
// daemon. It has two modes.
//
// The default mode is the CONCURRENCY experiment: N closed-loop
// connections with a mixed workload — plan-cache hits (one hot
// split-parallel plan) and misses (unique formulas that pay compilation
// inline), fused multi-query batches (/v1/extract-batch, -batch-every),
// small and large documents, inline JSON and streamed raw bodies —
// reporting client-side throughput and latency percentiles per
// connection count:
//
//	spand -addr :8080 &
//	spanload -target http://127.0.0.1:8080 -conns 1,4,16 -dur 5s -json concurrency.json
//
// -overload selects the OVERLOAD experiment instead: after closed-loop
// baselines (one connection for the latency reference, NumCPU
// connections for the capacity estimate), it offers open-loop arrivals
// at configured multiples of capacity — mixed tenants, slow readers —
// and verifies the daemon's shedding contract: every non-admitted
// request is a 429 with Retry-After, nothing else fails:
//
//	spand -addr :8080 -admit 4 -admit-queue 8 &
//	spanload -target http://127.0.0.1:8080 -overload -rates 1,2,3 -json overload.json
//
// In overload mode spanload exits non-zero when the contract is
// violated: any non-429 error, any 429 without a valid Retry-After, or
// no sheds at all across the offered rates (which would mean the
// daemon queued past its declared capacity instead of shedding).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/loadgen"
)

func main() {
	var (
		target     = flag.String("target", "http://127.0.0.1:8080", "base URL of the spand daemon")
		connsFlag  = flag.String("conns", "1,4,16", "comma-separated connection counts to sweep")
		dur        = flag.Duration("dur", 5*time.Second, "duration of each connection-count or rate run")
		missEvery  = flag.Int("miss-every", 8, "one plan-cache-missing formula per N requests (negative disables)")
		batchEvery = flag.Int("batch-every", 8, "one fused /v1/extract-batch request per N requests (0 disables)")
		seed       = flag.Uint64("seed", 0, "workload mix seed (0 = fixed default)")
		jsonOut    = flag.String("json", "", "write the experiment snapshot to this file")

		overload  = flag.Bool("overload", false, "run the OVERLOAD experiment instead of the connection sweep")
		ratesFlag = flag.String("rates", "1,2,3", "overload: comma-separated arrival-rate multipliers of measured capacity")
		baseDur   = flag.Duration("base-dur", 2*time.Second, "overload: duration of each closed-loop baseline run")
		tenants   = flag.Int("tenants", 3, "overload: distinct tenant keys cycled through")
		slowEvery = flag.Int("slow-every", 8, "overload: one slow-reader client per N requests (negative disables)")
	)
	flag.Parse()

	if *overload {
		runOverload(*target, *ratesFlag, *dur, *baseDur, *tenants, *slowEvery, *seed, *jsonOut)
		return
	}

	var conns []int
	for _, f := range strings.Split(*connsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			log.Fatalf("spanload: bad -conns entry %q", f)
		}
		conns = append(conns, n)
	}

	cfg := loadgen.Config{Target: *target, Duration: *dur, MissEvery: *missEvery, BatchEvery: *batchEvery, Seed: *seed}
	snap := loadgen.RunSweep(cfg, conns)

	fmt.Printf("%-6s %10s %8s %10s %10s %9s %9s %9s\n",
		"conns", "requests", "errors", "req/s", "MB/s", "p50 ms", "p90 ms", "p99 ms")
	for _, r := range snap.Results {
		fmt.Printf("%-6d %10d %8d %10.1f %10.2f %9.2f %9.2f %9.2f\n",
			r.Connections, r.Requests, r.Errors, r.ReqPerS, r.MBPerS, r.P50MS, r.P90MS, r.P99MS)
	}

	writeJSON(*jsonOut, snap)
	for _, r := range snap.Results {
		if r.Errors > 0 {
			os.Exit(1)
		}
	}
}

func runOverload(target, ratesFlag string, dur, baseDur time.Duration, tenants, slowEvery int, seed uint64, jsonOut string) {
	var rates []float64
	for _, f := range strings.Split(ratesFlag, ",") {
		m, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || m <= 0 {
			log.Fatalf("spanload: bad -rates entry %q", f)
		}
		rates = append(rates, m)
	}

	snap := loadgen.RunOverload(loadgen.OverloadConfig{
		Target:           target,
		BaselineDuration: baseDur,
		RateDuration:     dur,
		Rates:            rates,
		Tenants:          tenants,
		SlowEvery:        slowEvery,
		Seed:             seed,
	})

	fmt.Printf("baseline 1 conn:  %8.1f req/s  p99 %7.2f ms\n", snap.SingleConn.ReqPerS, snap.SingleConn.P99MS)
	fmt.Printf("capacity %d conns: %8.1f req/s  p99 %7.2f ms\n", snap.NumCPU, snap.Capacity.ReqPerS, snap.Capacity.P99MS)
	fmt.Printf("%-6s %12s %9s %9s %9s %9s %9s %12s %12s\n",
		"rate", "offered/s", "offered", "ok", "shed", "errors", "dropped", "adm p50 ms", "adm p99 ms")
	for _, r := range snap.Rates {
		fmt.Printf("%-6.2g %12.1f %9d %9d %9d %9d %9d %12.2f %12.2f\n",
			r.Rate, r.OfferedPerS, r.Offered, r.OK, r.Shed+r.ShedBad, r.Errors, r.DroppedClient,
			r.AdmittedP50MS, r.AdmittedP99MS)
	}

	writeJSON(jsonOut, snap)

	failed := false
	var totalShed uint64
	for _, r := range snap.Rates {
		totalShed += r.Shed
		if r.Errors > 0 {
			log.Printf("spanload: rate %.2g: %d non-429 errors", r.Rate, r.Errors)
			failed = true
		}
		if r.ShedBad > 0 {
			log.Printf("spanload: rate %.2g: %d sheds missing Retry-After", r.Rate, r.ShedBad)
			failed = true
		}
	}
	if totalShed == 0 {
		log.Printf("spanload: no request was shed at any offered rate")
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

func writeJSON(path string, v any) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatalf("spanload: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		log.Fatalf("spanload: %v", err)
	}
	log.Printf("spanload: wrote %s", path)
}
