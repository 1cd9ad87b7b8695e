// Package spans is the trace format of disassobench: the traced replay
// records spans with a Tracer and writes a File, and disassobench reads the
// File back to compute the per-layer metrics.
package spans

import "time"

// File is what one traced replay writes.
type File struct {
	Spans []Span `json:"spans"`
	// CostNS is the measured cost of one Begin/End pair, WallNS the
	// replay's wall time: together they bound the tracing overhead.
	CostNS float64 `json:"span_cost_ns"`
	WallNS int64   `json:"wall_ns"`
}

// Span is one traced call. Operation spans have Parent -1 and Op equal to
// their own ID; a layer call's Parent is its operation. Times are
// nanoseconds since the tracer started.
type Span struct {
	ID     int32            `json:"id"`
	Parent int32            `json:"parent"`
	Op     int32            `json:"op"`
	Name   string           `json:"name"`
	Start  int64            `json:"start"`
	End    int64            `json:"end"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// Tracer keeps spans in memory, in the order they began.
type Tracer struct {
	t0    time.Time
	Spans []Span
}

// NewTracer starts a tracer's clock.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span under parent (-1 opens an operation).
func (t *Tracer) Begin(name string, parent int32) int32 {
	id := int32(len(t.Spans))
	op := id
	if parent >= 0 {
		op = t.Spans[parent].Op
	}
	t.Spans = append(t.Spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// End closes a span, attaching its counts.
func (t *Tracer) End(id int32, counts map[string]int64) {
	t.Spans[id].End = int64(time.Since(t.t0))
	t.Spans[id].Counts = counts
}

// Cost measures what one Begin/End pair costs, in nanoseconds.
func Cost() float64 {
	const n = 20000
	t := NewTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.End(t.Begin("calibrate", -1), nil)
	}
	return float64(time.Since(start)) / n
}
