package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// span is one timed call into the program, recorded by the benchmark
// around the public function it calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the run root
	Name   string `json:"name"`
	// StartNS and EndNS are offsets from the tracer's start.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory; a nil tracer records nothing. Calls are
// strictly nested (the benchmark is single-threaded), so the open-span
// stack gives every span its parent.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: now()} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: int64(since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = int64(since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func() error) error {
	id := t.begin(name)
	err := fn()
	t.end(id)
	return err
}

// total sums the durations of spans with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// checkTree verifies the span tree: exactly one root (the first span),
// every other span has a parent that encloses it, every span is closed, and
// the self times (duration minus the time covered by child spans) sum to
// the root's wall time within 1%.
func (t *tracer) checkTree() error {
	if len(t.spans) == 0 {
		return fmt.Errorf("trace: no spans")
	}
	if len(t.open) != 0 {
		return fmt.Errorf("trace: %d spans left open", len(t.open))
	}
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.ID == 0 {
			if s.Parent != -1 {
				return fmt.Errorf("trace: root span has a parent")
			}
			continue
		}
		if s.Parent < 0 || s.Parent >= s.ID {
			return fmt.Errorf("trace: span %d (%s) has no parent", s.ID, s.Name)
		}
		p := t.spans[s.Parent]
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			return fmt.Errorf("trace: span %d (%s) lies outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		children[s.Parent] += s.dur()
	}
	var self time.Duration
	for i, s := range t.spans {
		self += s.dur() - children[i]
	}
	root := t.spans[0].dur()
	if root <= 0 || math.Abs(float64(self-root)) > 0.01*float64(root) {
		return fmt.Errorf("trace: self times sum to %v, root wall is %v", self, root)
	}
	return nil
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
