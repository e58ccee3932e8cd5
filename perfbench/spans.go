package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of one traced repetition in memory. A nil
// *tracer records nothing, which is how the untraced runs call the
// same code without paying for it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex // recording spans arrive from engine workers
	spans []span
}

// span is one timed call across a layer boundary. Parent is the index
// of the enclosing span, -1 for a root.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
	Insts  uint64  `json:"insts,omitempty"`
	CPU    float64 `json:"cpu_s,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span id, attaching the instructions it handled.
func (t *tracer) end(id int, insts uint64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Insts = insts
}

// setCPU attaches the process CPU seconds spent during span id.
func (t *tracer) setCPU(id int, cpu float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].CPU = cpu
}

// finish computes every span's self time: its duration minus the part
// of it that the union of its children's intervals covers. Children
// run concurrently (recordings on engine workers), so their union, not
// their sum, is subtracted.
func (t *tracer) finish() []span {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, hi := 0.0, t.spans[i].Start
		for _, k := range kids {
			lo := max(k.Start, hi)
			if k.End > lo {
				covered += k.End - lo
				hi = k.End
			}
		}
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start - covered
	}
	return t.spans
}

// sumSpans returns the total duration and instructions of the spans named
// name.
func sumSpans(spans []span, name string) (seconds float64, insts uint64) {
	for _, s := range spans {
		if s.Name == name {
			seconds += s.End - s.Start
			insts += s.Insts
		}
	}
	return seconds, insts
}

// writeSpans writes the spans as JSON to path.
func writeSpans(path string, spans []span) error {
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
