package main

import (
	"sort"
	"time"
)

// span is one benchmark-side timing around a call into a layer. Spans
// of one operation share Op; Parent is the index of the enclosing span
// (-1 for an operation's root).
type span struct {
	Name    string `json:"name"`
	Op      int64  `json:"op"`
	Case    int    `json:"case"`
	Parent  int    `json:"parent"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
	Matches int64  `json:"matches,omitempty"`
}

// tracer keeps every span in memory; the traced run writes them out
// at the end. It is used from one goroutine. A nil *tracer records
// nothing, so the measured code paths take one untraced branch.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int64
	cse   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginOp opens the root span of a new operation over probe case c
// (-1 when the operation belongs to no case).
func (t *tracer) beginOp(name string, c int) int {
	if t == nil {
		return -1
	}
	t.op++
	t.cse = c
	return t.start(name)
}

// start opens a span under the innermost open one.
func (t *tracer) start(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Case: t.cse, Parent: parent, Start: int64(time.Since(t.t0))})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

// end closes span i (the innermost open one) with its counts.
func (t *tracer) end(i int, bytes, matches int64) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.End = int64(time.Since(t.t0))
	s.Bytes, s.Matches = bytes, matches
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns each span's duration minus the time its children
// cover. Children of one span never overlap (one goroutine).
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	Bytes   int64   `json:"bytes"`
	Matches int64   `json:"matches"`
}

func (t *tracer) rows() []layerRow {
	self := t.selfTimes()
	by := map[string]*layerRow{}
	for i, s := range t.spans {
		r := by[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			by[s.Name] = r
		}
		r.Spans++
		r.TotalMs += float64(s.End-s.Start) / 1e6
		r.SelfMs += float64(self[i]) / 1e6
		r.Bytes += s.Bytes
		r.Matches += s.Matches
	}
	out := make([]layerRow, 0, len(by))
	for _, r := range by {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// medianSelf is, per case, the median self time (ns) of the spans
// named name, summed over cases: the layer's cost for one pass over
// the workload's cases with repetition noise removed.
func (t *tracer) medianSelf(name string) float64 {
	self := t.selfTimes()
	per := map[int][]float64{}
	for i, s := range t.spans {
		if s.Name == name {
			per[s.Case] = append(per[s.Case], float64(self[i]))
		}
	}
	var total float64
	for _, xs := range per {
		total += median(xs)
	}
	return total
}
