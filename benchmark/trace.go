package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// a Trace identifier; Parent is the ID of the span that caused this one
// (-1 for a root).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"` // since the recorder was created
	DurMs   float64 `json:"dur_ms"`
}

// recorder keeps the spans of a traced pass in memory; they are written
// out once, when the benchmark ends. All spans are recorded from the
// benchmark's own files, around its calls into each layer.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its ID for use as a parent.
func (r *recorder) add(parent int, trace, name string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		StartMs: ms(start.Sub(r.t0)), DurMs: ms(end.Sub(start)),
	})
	return id
}

// close sets the end of a span that was added open (start == end)
// because its children had to name it as their parent first.
func (r *recorder) close(id int, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].DurMs = ms(end.Sub(r.t0)) - r.spans[id].StartMs
}

// selfTimes sums, per span name, the span's duration minus the part its
// children cover.
func (r *recorder) selfTimes() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.DurMs
		}
	}
	self := make(map[string]float64)
	for _, s := range r.spans {
		self[s.Name] += s.DurMs - child[s.ID]
	}
	return self
}

// write stores the spans and their self-time summary as JSON.
func (r *recorder) write(path string) error {
	doc := struct {
		SelfMsByName map[string]float64 `json:"self_ms_by_name"`
		Spans        []span             `json:"spans"`
	}{r.selfTimes(), r.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
