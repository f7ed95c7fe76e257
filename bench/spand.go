package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildSpand compiles cmd/spand from the enclosing repository into dir.
// The harness runs with bench/ as its working directory (go run -C
// bench, or run.sh), where the replace directive of go.mod makes the
// parent module's commands buildable by import path.
func buildSpand(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(dir, "spand"))
	if err != nil {
		return "", err
	}
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/spand").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build repro/cmd/spand (run the harness from bench/): %w\n%s", err, out)
	}
	return bin, nil
}

// spand is one daemon subprocess, started with default flags on a free
// loopback port.
type spand struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  bytes.Buffer
	done chan struct{} // closed when the process has been waited for
}

// live tracks running daemons so an interrupt or a harness error can
// kill them: no spand may outlive the harness.
var live struct {
	sync.Mutex
	procs map[*spand]struct{}
}

func killAllSpands() {
	live.Lock()
	defer live.Unlock()
	for s := range live.procs {
		_ = s.cmd.Process.Kill() // already exited is fine
	}
}

func liveSpands() int {
	live.Lock()
	defer live.Unlock()
	return len(live.procs)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startSpand execs the daemon and returns once /v1/stats answers.
func startSpand(bin string) (*spand, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick a free port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &spand{base: "http://" + addr, done: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr)
	s.cmd.Stdout, s.cmd.Stderr = &s.log, &s.log
	// If the harness is killed outright, the kernel takes spand with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start spand: %w", err)
	}
	live.Lock()
	if live.procs == nil {
		live.procs = map[*spand]struct{}{}
	}
	live.procs[s] = struct{}{}
	live.Unlock()
	go func() {
		_ = s.cmd.Wait() // exit status is irrelevant: stop() signals it
		live.Lock()
		delete(live.procs, s)
		live.Unlock()
		close(s.done)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return nil, fmt.Errorf("spand exited during start-up:\n%s", s.log.String())
		default:
		}
		resp, err := http.Get(s.base + "/v1/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("spand not ready on %s after 10s:\n%s", addr, s.log.String())
}

// stop sends SIGTERM and waits for the process to end, killing it if
// the drain takes too long.
func (s *spand) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// statsDoc is the part of GET /v1/stats the ledger reads.
type statsDoc struct {
	Documents      uint64 `json:"documents"`
	StreamedDocs   uint64 `json:"streamed_docs"`
	Workers        int    `json:"workers"`
	RequestWorkers int    `json:"request_workers"`
	Batch          int    `json:"batch"`
	PlanCache      struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Coalesced uint64 `json:"coalesced"`
		Evictions uint64 `json:"evictions"`
		Cap       int    `json:"cap"`
	} `json:"plan_cache"`
	Stages map[string]struct {
		TotalMS float64 `json:"total_ms"`
	} `json:"stages"`
	Segmenter struct {
		Bails uint64 `json:"bails"`
	} `json:"segmenter"`
	Executor struct {
		Steals    uint64  `json:"steals"`
		BusyShare float64 `json:"busy_share"`
	} `json:"executor"`
	Localization struct {
		WindowByteShare float64 `json:"window_byte_share"`
		Fallbacks       uint64  `json:"fallbacks"`
	} `json:"localization"`
	Endpoints map[string]struct {
		Count uint64  `json:"count"`
		P50MS float64 `json:"p50_ms"`
	} `json:"endpoints"`
	Admission *struct {
		Tokens        int     `json:"tokens"`
		ShedFull      uint64  `json:"shed_full"`
		ShedAged      uint64  `json:"shed_aged"`
		QueueAgeP99MS float64 `json:"queue_age_p99_ms"`
	} `json:"admission"`
}

func (s *spand) stats() (*statsDoc, error) {
	resp, err := http.Get(s.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	var st statsDoc
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %w", err)
	}
	if st.Admission == nil {
		return nil, errors.New("GET /v1/stats: no admission section (spand must run with default flags)")
	}
	return &st, nil
}

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux port Go supports.
const clockTick = 100

// cpuSeconds reads utime+stime of the process.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected utime/stime", pid)
	}
	return float64(ut+st) / clockTick, nil
}

// peakRSSMiB reads VmHWM of the process.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: VmHWM: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
