package main

import (
	"runtime"
	"strings"
	"time"
)

// span is one timed interval around a call into a layer's public
// function, recorded from the benchmark's side of the boundary.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for an operation's root span
	Op     int     `json:"op"`     // spans of one traced operation share it
	Name   string  `json:"name"`   // "<layer>.<stage>[:<server>]"
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// AllocMiB is the runtime.MemStats.TotalAlloc delta around the
	// call; stages run one at a time, so the attribution is exact.
	AllocMiB float64 `json:"alloc_mib"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// layer is the internal package a span's time belongs to.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory; the run writes them out at exit.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp starts a new traced operation: spans begun from now on carry
// its number. An operation may have several root spans (parent -1).
// Like an untraced operation it starts from a collected heap.
func (t *tracer) nextOp() {
	runtime.GC()
	t.op++
}

// pipelineOp runs the untraced operation under a root span of the
// current traced operation, from a collected heap as timed() does, so
// its time compares with result_s (checker.trace_overhead_share).
func (t *tracer) pipelineOp(fn func()) float64 {
	runtime.GC()
	d, _ := t.stage(-1, "pipeline.op", fn)
	return d
}

func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name,
		Start: time.Since(t.t0).Seconds()})
	return id
}

func (t *tracer) end(id int) float64 {
	t.spans[id].End = time.Since(t.t0).Seconds()
	return t.spans[id].seconds()
}

// stage runs fn as a child span of parent and returns its duration in
// seconds and the MiB it allocated. The two ReadMemStats calls sit
// outside the span, so they land in the parent's self time.
func (t *tracer) stage(parent int, name string, fn func()) (seconds, allocMiB float64) {
	a0 := totalAlloc()
	id := t.begin(name, parent)
	fn()
	seconds = t.end(id)
	allocMiB = float64(totalAlloc()-a0) / (1 << 20)
	t.spans[id].AllocMiB = allocMiB
	return seconds, allocMiB
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// selfSeconds returns each span's duration minus the part its child
// spans cover, indexed by span ID. Children of one span never overlap
// (stages are sequential), so the cover is their sum.
func selfSeconds(spans []span) []float64 {
	self := make([]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.seconds()
		if s.Parent >= 0 {
			self[s.Parent] -= s.seconds()
		}
	}
	return self
}

// layerSelfMedians sums self time by layer within each traced
// operation and returns each layer's median over the operations.
func layerSelfMedians(spans []span) map[string]float64 {
	self := selfSeconds(spans)
	perOp := map[string]map[int]float64{}
	for _, s := range spans {
		if s.Op == 0 {
			continue // recorded before the first operation: trace set-up
		}
		if perOp[s.layer()] == nil {
			perOp[s.layer()] = map[int]float64{}
		}
		perOp[s.layer()][s.Op] += self[s.ID]
	}
	out := map[string]float64{}
	for layer, byOp := range perOp {
		vals := make([]float64, 0, len(byOp))
		for _, v := range byOp {
			vals = append(vals, v)
		}
		out[layer] = median(vals)
	}
	return out
}
