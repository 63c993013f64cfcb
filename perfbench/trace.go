package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer: name, start and end in host
// nanoseconds since the tracer started, and the span that was open when
// it began (0 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. Spans nest by call order:
// a span started while another is open is its child. Not safe for
// concurrent use; the benchmark drives layers from one goroutine at a
// time (the simulation engine runs one process at a time).
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

// end closes span id (and any child left open) and returns its
// duration in nanoseconds.
func (t *tracer) end(id int) int64 {
	now := time.Since(t.t0).Nanoseconds()
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[top-1].End = now
		if top == id {
			break
		}
	}
	return now - t.spans[id-1].Start
}

// write saves the spans as JSON; an empty path discards them.
func (t *tracer) write(path string) error {
	if path == "" {
		return nil
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
