// Command bench is the repository's one performance ledger: five spand
// traffic mixes driven over loopback against the real daemon, every
// answer checked against sequential evaluation, and — in a separate
// traced run — the public functions of each layer timed on the same
// inputs so that the layers' self times add up to the request time.
//
// It is a module of its own (the benchmark's contract wants the
// benchmark to carry its build file), so run it from bench/:
//
//	go run -C bench . -seed 1                 every workload, 5 rounds × 5 s, then the traced runs and ledgers
//	go run -C bench . -seed 1 -selfcheck      the same twice (A/A), Δ against each bound, non-zero exit on a breach
//	bash bench/run.sh --workload small-hot --seed 1 --seconds 10 --trace 0
//	                                          one run as the driver makes it; last line is the result object
//
// See README.md for the metric and workload definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// Cold starts behind one run's setup_s: a driver run stands alone, a
// round of the full benchmark is one of fullRounds.
const (
	driverSetups = 7
	roundSetups  = 3
)

// fullRounds is the number of windows per workload in the full
// benchmark, interleaved across workloads.
const fullRounds = 5

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload once and print the driver's result object (empty = the full benchmark)")
		seed         = flag.Uint64("seed", 1, "seed of every generated document and formula suffix")
		seconds      = flag.Float64("seconds", 5, "length of one measured window")
		trace        = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = the traced run's per-layer metrics")
		selfcheck    = flag.Bool("selfcheck", false, "run the full benchmark twice and compare the two against the bounds")
		outDir       = flag.String("out", "out", "directory for the spand binary and the trace files")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-interrupt
		killAllSpands()
		os.Exit(130)
	}()

	h := &harness{seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		outDir: *outDir, ws: workloads(1), out: os.Stdout}
	var err error
	switch {
	case *workloadName != "":
		err = h.driverRun(*workloadName, *trace == 1)
	case *selfcheck:
		err = h.selfcheck()
	default:
		_, err = h.full()
	}
	if err != nil {
		killAllSpands()
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// harness is one invocation's configuration.
type harness struct {
	seed   uint64
	window time.Duration
	outDir string
	ws     []*workload
	out    io.Writer
	bin    string // built spand
}

func (h *harness) build() error {
	if h.bin != "" {
		return nil
	}
	var err error
	h.bin, err = buildSpand(h.outDir)
	return err
}

func (h *harness) printf(format string, args ...any) { fmt.Fprintf(h.out, format, args...) }

// header records where and how the numbers were taken.
func (h *harness) header(info daemonInfo) {
	h.printf("# nproc=%d go=%s clients=%d window=%s seed=%d spand: workers=%d req-workers=%d admit=%d batch=%d cache=%d\n",
		runtime.NumCPU(), runtime.Version(), clientCount(), h.window, h.seed,
		info.workers, info.requestWorkers, info.admit, info.batch, info.planCap)
}

// result is the object the driver reads from the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun is one run as the driver makes it: one workload, one seed,
// one window; the last line of output is the result object.
func (h *harness) driverRun(name string, traced bool) error {
	w := workloadByName(h.ws, name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := h.build(); err != nil {
		return err
	}
	res := result{Metrics: map[string]metricValue{}}
	var values map[string]float64
	defs := endToEnd
	if traced {
		r, err := runTraced(h.bin, h.outDir, w, h.seed, h.window)
		if err != nil {
			return err
		}
		h.header(r.info)
		h.printLayers(w, r)
		defs, values, res.Attempted, res.Failed = perLayer, r.metrics, r.attempted, failures(r.fails)
	} else {
		r, err := runTimed(h.bin, w, h.seed, h.window, driverSetups)
		if err != nil {
			return err
		}
		h.header(r.info)
		for _, d := range endToEnd {
			h.printf("%-20s %-24s %14.4f %s\n", w.name, d.name, r.metrics[d.name], d.unit)
		}
		h.printFailures(w, r.attempted, r.fails)
		values, res.Attempted, res.Failed = r.metrics, r.attempted, failures(r.fails)
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s: metric %s was not measured (%v)", w.name, d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	h.printf("%s\n", line)
	return nil
}

func (h *harness) printFailures(w *workload, attempted int, fails [numFailKinds]int) {
	h.printf("%-20s attempted=%d", w.name, attempted)
	for k, n := range fails {
		h.printf(" %s=%d", failNames[k], n)
	}
	h.printf("\n")
}

// printLayers prints one workload's per-layer metrics and its ledger.
func (h *harness) printLayers(w *workload, r *tracedResult) {
	for _, d := range perLayer {
		h.printf("%-20s %-36s %14.4f %s\n", w.name, d.name, r.metrics[d.name], d.unit)
	}
	h.printFailures(w, r.attempted, r.fails)
	l := r.ledger
	h.printf("%-20s ledger: spand.request_1c_p50_ms %.4f ms =\n", w.name, l.requestMS)
	row := func(name string, ms float64) {
		h.printf("%-20s   %-26s %10.4f ms  %5.1f%%\n", w.name, name, ms, 100*ms/l.requestMS)
	}
	row("spand.http_overhead_ms", l.overheadMS)
	for _, layer := range ledgerLayers {
		row(layer+" self", l.selfMS[layer])
	}
	h.printf("%-20s   %-26s %10.4f ms  gap %.1f%%\n", w.name, "sum", l.sumMS(), 100*r.metrics["bench.ledger_gap_share"])
	h.printf("%-20s trace: %s\n", w.name, r.tracePath)
}

// report is the full benchmark's outcome: per workload, the median over
// rounds of every end-to-end metric.
type report map[string]map[string]float64

// full runs every workload for fullRounds rounds, interleaved (all five
// once, then all five again, …), each (workload, round) on a fresh
// daemon, then the traced run of every workload.
func (h *harness) full() (report, error) {
	if err := h.build(); err != nil {
		return nil, err
	}
	values := map[string]map[string][]float64{}
	attempted := map[string]int{}
	fails := map[string]*[numFailKinds]int{}
	for round := 0; round < fullRounds; round++ {
		for _, w := range h.ws {
			r, err := runTimed(h.bin, w, h.seed, h.window, roundSetups)
			if err != nil {
				return nil, err
			}
			if round == 0 && w == h.ws[0] {
				h.header(r.info)
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
				fails[w.name] = new([numFailKinds]int)
			}
			for name, v := range r.metrics {
				values[w.name][name] = append(values[w.name][name], v)
			}
			attempted[w.name] += r.attempted
			for k, n := range r.fails {
				fails[w.name][k] += n
			}
			fmt.Fprintf(os.Stderr, "round %d/%d %-20s %8.1f docs/s\n", round+1, fullRounds, w.name, r.metrics["docs_per_s"])
		}
	}
	rep := report{}
	failed := 0
	h.printf("# end to end: median over %d rounds [inter-quartile range]\n", fullRounds)
	for _, w := range h.ws {
		rep[w.name] = map[string]float64{}
		for _, d := range endToEnd {
			q1, med, q3 := quartiles(values[w.name][d.name])
			rep[w.name][d.name] = med
			h.printf("%-20s %-24s %14.4f %-5s [%.4f .. %.4f]\n", w.name, d.name, med, d.unit, q1, q3)
		}
		h.printFailures(w, attempted[w.name], *fails[w.name])
		failed += failures(*fails[w.name])
	}
	h.printf("# per layer: one traced run per workload\n")
	for _, w := range h.ws {
		r, err := runTraced(h.bin, h.outDir, w, h.seed, 2*h.window)
		if err != nil {
			return nil, err
		}
		h.printLayers(w, r)
		failed += failures(r.fails)
	}
	if failed > 0 {
		return rep, fmt.Errorf("%d requests failed", failed)
	}
	return rep, nil
}

// selfcheck runs the full benchmark twice back to back — the same code
// against itself — and holds the second run's medians to the bounds.
func (h *harness) selfcheck() error {
	a, err := h.full()
	if err != nil {
		return err
	}
	b, err := h.full()
	if err != nil {
		return err
	}
	h.printf("# A/A: second run against the first; worse is positive\n")
	breaches := 0
	for _, w := range h.ws {
		for _, d := range endToEnd {
			worse := (b[w.name][d.name] - a[w.name][d.name]) / a[w.name][d.name]
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.bound {
				verdict = "BREACH"
				breaches++
			}
			h.printf("%-20s %-24s A %12.4f  B %12.4f  worse by %+6.1f%%  bound %4.0f%%  %s\n",
				w.name, d.name, a[w.name][d.name], b[w.name][d.name], 100*worse, 100*d.bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("A/A: %d metric(s) moved by more than their bound between two runs of the same code", breaches)
	}
	return nil
}
