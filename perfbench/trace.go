package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call: the program itself carries no tracing. Spans of one request
// share its Req id; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It holds at most
// maxSpans; later spans are counted but dropped, so a long traced run
// cannot grow without bound.
type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
}

const maxSpans = 1 << 18

// traceEvery is the sampling rate of the closed loops' request spans: one
// call in traceEvery. Every call is still timed; tracing all of them would
// fill maxSpans within a second and cost the traced pass a fifth of its
// throughput in lock traffic.
const traceEvery = 16

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and start time.
func (t *tracer) begin() (time.Time, int64) {
	return time.Now(), t.next.Add(1)
}

// end closes a span opened by begin.
func (t *tracer) end(id, parent, req int64, name string, start time.Time) time.Duration {
	now := time.Now()
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
			Start: int64(start.Sub(t.t0)), End: int64(now.Sub(t.t0))})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	return now.Sub(start)
}

// do times fn as one span.
func (t *tracer) do(name string, parent, req int64, fn func(id int64)) time.Duration {
	start, id := t.begin()
	fn(id)
	return t.end(id, parent, req, name, start)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTime returns each span name's total duration minus the part covered
// by its direct children.
func (t *tracer) selfTime() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// writeFile writes the spans as JSON under dir and returns the path.
func (t *tracer) writeFile(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Dropped int64  `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.dropped, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
