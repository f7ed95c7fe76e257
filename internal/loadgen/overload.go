package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// The OVERLOAD experiment measures how the daemon behaves past its
// capacity: requests must either be admitted and finish with bounded
// latency, or be shed promptly with 429 + Retry-After — never queue
// without bound or fail with anything else. The run has three parts:
//
//  1. a closed-loop single-connection baseline (the unloaded p99
//     reference),
//  2. a closed-loop run at NumCPU connections (the capacity estimate,
//     in req/s),
//  3. one open-loop run per configured rate multiplier: arrivals are
//     paced at multiplier × capacity regardless of how fast responses
//     come back, so when the daemon falls behind, offered load does
//     not shrink with it (unlike a closed loop, which self-throttles).
//
// The open-loop phase mixes tenants (round-robin X-Tenant values),
// ingestion modes (inline JSON and streamed raw bodies) and client
// behaviors (a fraction of clients read their responses slowly). Every
// 429 is checked for a positive integer Retry-After; a 429 without one
// is a contract violation counted separately from clean sheds.
//
// All phases run the hot plan only (no compile-miss formulas): the
// experiment is about admission under load, and the latency comparison
// between the open-loop admitted p99 and the single-connection p99 is
// only meaningful when both measure the same work.

// OverloadConfig parameterizes one overload run.
type OverloadConfig struct {
	// Target is the daemon's base URL.
	Target string
	// BaselineDuration is the length of each closed-loop baseline run;
	// 0 selects 2s.
	BaselineDuration time.Duration
	// RateDuration is the length of each open-loop rate run; 0 selects 3s.
	RateDuration time.Duration
	// Rates are the arrival-rate multipliers applied to the measured
	// capacity; empty selects {1, 2, 3}.
	Rates []float64
	// Tenants is how many distinct tenant keys (t0, t1, ...) the open
	// loop cycles through; 0 selects 3.
	Tenants int
	// TenantHeader is the header carrying the tenant key; empty selects
	// "X-Tenant".
	TenantHeader string
	// SlowEvery makes one request in N a slow reader that drains its
	// response in small paced chunks; 0 selects 8, negative disables.
	SlowEvery int
	// MaxInFlight caps the client's concurrent outstanding requests so
	// an unresponsive daemon cannot exhaust client sockets; arrivals
	// past the cap are counted as dropped_client, not sent. 0 selects
	// max(64, 8×NumCPU).
	MaxInFlight int
	// Seed fixes the workload mix; 0 selects a fixed default.
	Seed uint64
	// Client optionally overrides the HTTP client.
	Client *http.Client
}

// OverloadRow is the measured outcome of one open-loop rate run.
type OverloadRow struct {
	// Rate is the arrival-rate multiplier relative to measured capacity.
	Rate float64 `json:"rate"`
	// OfferedPerS is the absolute paced arrival rate.
	OfferedPerS float64 `json:"offered_per_s"`
	Offered     uint64  `json:"offered"`
	OK          uint64  `json:"ok"`
	// Shed counts 429 responses carrying a valid positive Retry-After.
	Shed uint64 `json:"shed"`
	// ShedBad counts 429 responses missing or with an unparsable
	// Retry-After — a violated shedding contract.
	ShedBad uint64 `json:"shed_missing_retry_after"`
	// Errors counts transport failures and any status other than 200
	// and 429.
	Errors uint64 `json:"errors"`
	// DroppedClient counts arrivals the client never sent because its
	// own in-flight cap was reached.
	DroppedClient uint64 `json:"dropped_client"`
	// Admitted latency percentiles cover OK responses from normal-speed
	// readers only; deliberately slow readers inflate their own
	// latency client-side and are excluded.
	AdmittedP50MS float64 `json:"admitted_p50_ms"`
	AdmittedP99MS float64 `json:"admitted_p99_ms"`
}

// OverloadSnapshot is what spanload -overload -json writes.
type OverloadSnapshot struct {
	Experiment string `json:"experiment"` // "OVERLOAD"
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	Target     string `json:"target"`
	// SingleConn is the closed-loop one-connection baseline; its P99MS
	// is the unloaded latency reference.
	SingleConn Result `json:"single_conn"`
	// Capacity is the closed-loop NumCPU-connection run; its ReqPerS is
	// the capacity estimate the rate multipliers scale.
	Capacity Result        `json:"capacity"`
	Rates    []OverloadRow `json:"rates"`
}

// RunOverload runs the full OVERLOAD experiment.
func RunOverload(cfg OverloadConfig) OverloadSnapshot {
	if cfg.BaselineDuration <= 0 {
		cfg.BaselineDuration = 2 * time.Second
	}
	if cfg.RateDuration <= 0 {
		cfg.RateDuration = 3 * time.Second
	}
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{1, 2, 3}
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 3
	}
	if cfg.TenantHeader == "" {
		cfg.TenantHeader = "X-Tenant"
	}
	if cfg.SlowEvery == 0 {
		cfg.SlowEvery = 8
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = max(64, 8*runtime.NumCPU())
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x5eed
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.MaxInFlight}}
	}

	snap := OverloadSnapshot{
		Experiment: "OVERLOAD",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Target:     cfg.Target,
	}
	base := Config{Target: cfg.Target, Duration: cfg.BaselineDuration, MissEvery: -1, Seed: cfg.Seed, Client: client}
	one := base
	one.Conns = 1
	snap.SingleConn = Run(one)
	capa := base
	capa.Conns = runtime.NumCPU()
	snap.Capacity = Run(capa)

	for _, m := range cfg.Rates {
		snap.Rates = append(snap.Rates, runOverloadRate(cfg, client, m, snap.Capacity.ReqPerS))
	}
	return snap
}

// overloadState is the shared state of one open-loop rate run.
type overloadState struct {
	cfg    OverloadConfig
	client *http.Client
	corpus []string

	ok, shed, shedBad, errors obs.Counter
	admitted                  obs.Histogram
}

// runOverloadRate paces arrivals at mult × capacityRPS for
// cfg.RateDuration, never slowing down when responses lag. The schedule
// is absolute (arrival i is due at t0 + i·interval), so an oversleep is
// followed by an immediate catch-up burst and the average offered rate
// holds.
func runOverloadRate(cfg OverloadConfig, client *http.Client, mult, capacityRPS float64) OverloadRow {
	rate := mult * capacityRPS
	if rate < 1 {
		rate = 1
	}
	interval := time.Duration(float64(time.Second) / rate)

	st := &overloadState{cfg: cfg, client: client, corpus: docs()}
	sem := make(chan struct{}, cfg.MaxInFlight)
	var wg sync.WaitGroup

	row := OverloadRow{Rate: mult, OfferedPerS: rate}
	t0 := time.Now()
	deadline := t0.Add(cfg.RateDuration)
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if due.After(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		row.Offered++
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func(seq int) {
				defer wg.Done()
				st.do(seq)
				<-sem
			}(i)
		default:
			row.DroppedClient++
		}
	}
	wg.Wait()

	row.OK = st.ok.Load()
	row.Shed = st.shed.Load()
	row.ShedBad = st.shedBad.Load()
	row.Errors = st.errors.Load()
	s := st.admitted.Snapshot()
	const msPerNS = 1e-6
	row.AdmittedP50MS = s.Quantile(0.50) * msPerNS
	row.AdmittedP99MS = s.Quantile(0.99) * msPerNS
	return row
}

// do issues open-loop arrival seq: tenant, document, ingestion mode and
// reader speed are all deterministic functions of the sequence number.
func (s *overloadState) do(seq int) {
	doc := s.corpus[seq%len(s.corpus)]
	slow := s.cfg.SlowEvery > 0 && seq%s.cfg.SlowEvery == 0

	var (
		req *http.Request
		err error
	)
	if seq%2 == 0 {
		u := s.cfg.Target + "/v1/extract?spanner=" + url.QueryEscape(hotSpanner) +
			"&splitter=" + url.QueryEscape(hotSplitter)
		req, err = http.NewRequest(http.MethodPost, u, strings.NewReader(doc))
		if err == nil {
			req.Header.Set("Content-Type", "application/octet-stream")
		}
	} else {
		body, _ := json.Marshal(map[string]string{
			"spanner": hotSpanner, "splitter": hotSplitter, "doc": doc,
		})
		req, err = http.NewRequest(http.MethodPost, s.cfg.Target+"/v1/extract", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		s.errors.Inc()
		return
	}
	req.Header.Set(s.cfg.TenantHeader, fmt.Sprintf("t%d", seq%s.cfg.Tenants))

	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		s.errors.Inc()
		return
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if slow {
			slowDrain(resp.Body)
		} else {
			io.Copy(io.Discard, resp.Body)
			s.admitted.RecordDuration(time.Since(t0))
		}
		s.ok.Inc()
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		if n, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && n >= 1 {
			s.shed.Inc()
		} else {
			s.shedBad.Inc()
		}
	default:
		io.Copy(io.Discard, resp.Body)
		s.errors.Inc()
	}
}

// slowDrain reads a response in small paced chunks — a client that is
// slow to consume what it asked for — with a bounded total delay so one
// large response cannot stall the run's shutdown.
func slowDrain(r io.Reader) {
	buf := make([]byte, 4<<10)
	const step = 2 * time.Millisecond
	budget := 200 * time.Millisecond
	for {
		if _, err := r.Read(buf); err != nil {
			return
		}
		if budget >= step {
			time.Sleep(step)
			budget -= step
		}
	}
}
