package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the boundary. Spans of one order share its id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: root
	Name   string `json:"name"`
	Order  int    `json:"order"` // -1: not tied to one order
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Leaf is time inside this span spent in timed calls too cheap to
	// be worth a span of their own (index writes, policy choice).
	Leaf int64 `json:"leaf_ns,omitempty"`
	// Window is the number of orders in the batch window this call
	// closed, 0 if it closed none.
	Window int `json:"window_orders,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. begin/end/leaf
// follow the call stack of the one goroutine that uses them; add takes
// finished spans from any goroutine.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string, order int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.stack = append(t.stack, id)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Order: order, Start: t.now()})
	return id
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// leaf charges an un-spanned timed call to the innermost open span.
func (t *tracer) leaf(ns int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		t.spans[t.stack[n-1]].Leaf += ns
	}
}

// add records a finished, parentless span from any goroutine.
func (t *tracer) add(name string, order int, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: -1, Name: name, Order: order, Start: start, End: end})
}

// selfTimes returns each span's duration minus what its children and
// leaf calls cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur() - s.Leaf
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
