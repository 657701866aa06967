package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer was created
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs stay free of its cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 = root) and returns its id and the
// function that closes it.
func (t *tracer) begin(name string, parent int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNs: start})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].EndNs = end
		t.mu.Unlock()
	}
}

// durationsMs lists the durations of every closed span called name.
func (t *tracer) durationsMs(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNs >= s.StartNs {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
