package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps spans in memory for the traced run and writes them out when
// the run ends. Spans are recorded by the benchmark around its calls into
// each layer; the program itself is not instrumented. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

// span is one timed call. Parent is the ID of the span that caused it (0
// for a root); Req groups the spans of one HTTP request (0 elsewhere).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	// StartUS and EndUS are microseconds since the tracer was created.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`

	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id allocates a span ID ahead of recording, so children recorded earlier
// (a server span finishes before its client span) can name their parent.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores a finished span. id 0 allocates a fresh one.
func (t *tracer) record(id, parent, req uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	s := span{
		ID: id, Parent: parent, Req: req, Name: name,
		StartUS: float64(start.Sub(t.epoch)) / 1e3,
		EndUS:   float64(end.Sub(t.epoch)) / 1e3,
		start:   start, end: end,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
