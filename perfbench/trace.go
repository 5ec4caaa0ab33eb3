package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a simulator layer, made from the benchmark's
// own code. Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory for the traced run. A nil *tracer records
// nothing, so untraced passes pay one nil check per layer call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span; pass its result to stop.
func (t *tracer) start(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0).Seconds()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) stop(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Seconds()
	t.open = t.open[:len(t.open)-1]
}

// mark returns a position; sumsSince totals the spans recorded after it.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// sumsSince returns the host seconds spent in each span name since mark.
func (t *tracer) sumsSince(mark int) map[string]float64 {
	if t == nil {
		return nil
	}
	out := map[string]float64{}
	for _, s := range t.spans[mark:] {
		out[s.Name] += s.End - s.Start
	}
	return out
}

// write saves every recorded span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
