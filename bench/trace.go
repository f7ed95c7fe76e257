package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// callSpan is one timed call at a layer boundary, recorded by the harness
// around a public function of that layer. Spans of one request share
// (doc, iter); parent is the index of the span that caused this one, or
// -1. lanes > 1 on a span that ran its children on that many workers:
// the children were replayed at one goroutine, so they cover 1/lanes of
// their summed duration in the parent's interval.
type callSpan struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32
	doc, iter  int32
	lanes      int32
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []callSpan
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, doc, iter int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, callSpan{name: name, parent: int32(parent), doc: int32(doc), iter: int32(iter), lanes: 1})
	id := len(t.spans) - 1
	t.spans[id].start = int64(time.Since(t.epoch))
	return id
}

func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	return time.Duration(now - t.spans[id].start)
}

func (t *tracer) setLanes(id, lanes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].lanes = int32(max(lanes, 1))
}

// layerOf is the module a span is charged to: the part of its name
// before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns every span's self time on the request's wall
// clock: its duration minus the part of that interval its child spans
// cover, divided by the lanes of its ancestors — work replayed at one
// goroutine below a w-worker call took 1/w of its duration of the
// request. Without clamping, the self times below a root sum to the
// root's duration.
func (t *tracer) selfTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	self := make([]time.Duration, len(t.spans))
	scale := make([]float64, len(t.spans)) // 1 / lanes of the ancestors
	for i, s := range t.spans {
		scale[i] = 1
		if s.parent >= 0 { // parents precede children
			scale[i] = scale[s.parent] / float64(t.spans[s.parent].lanes)
		}
		dur := s.end - s.start
		self[i] = time.Duration(float64(dur-min(covered[i]/int64(s.lanes), dur)) * scale[i])
	}
	return self
}

// requestSplit is one replayed request: the duration of its root span
// and the self time of every layer below it (root included).
type requestSplit struct {
	root   time.Duration
	layers map[string]time.Duration
}

// splits returns the per-layer split of every request under a root span
// named root. The layers of one split sum to its root's duration, plus
// whatever replayed children overran their parent by.
func (t *tracer) splits(root string) []requestSplit {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	rootOf := make([]int32, len(t.spans))
	index := map[int32]int{} // root span → position in out
	var out []requestSplit
	for i, s := range t.spans {
		switch {
		case s.name == root && s.parent < 0:
			rootOf[i] = int32(i)
			index[int32(i)] = len(out)
			out = append(out, requestSplit{root: time.Duration(s.end - s.start), layers: map[string]time.Duration{}})
		case s.parent >= 0:
			rootOf[i] = rootOf[s.parent] // parents precede children
		default:
			rootOf[i] = -1
		}
		if k, ok := index[rootOf[i]]; ok {
			out[k].layers[layerOf(s.name)] += self[i]
		}
	}
	return out
}

// write stores the spans as a JSON array of
// {name, start_ns, end_ns, parent, req}, req = workload/doc/iter.
func (t *tracer) write(dir, workload string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("[")
	for i, s := range t.spans {
		if i > 0 {
			w.WriteString(",")
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":\"%s/%d/%d\"",
			s.name, s.start, s.end, s.parent, workload, s.doc, s.iter)
		if s.lanes > 1 {
			fmt.Fprintf(w, ",\"lanes\":%d", s.lanes)
		}
		w.WriteString("}")
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
