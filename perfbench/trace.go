package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval. All spans of one campaign or job share a
// trace id; Parent is 0 for a trace's root.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out at the end of the run.
// A nil *tracer records nothing, which is how untraced phases run.
type tracer struct {
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{} }

// newID returns a fresh id, usable as a trace id or a span id.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span. A zero id draws a fresh one; a root whose
// children finish first passes the id it handed them as parent.
func (t *tracer) record(trace, id, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(processStart).Nanoseconds(),
		End:   end.Sub(processStart).Nanoseconds(),
	})
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
