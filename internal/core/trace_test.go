package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestTraceOffByDefault: the detailed trace is opt-in; Diffs keeps
// recording either way.
func TestTraceOffByDefault(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	b := randomGraph(r, 200, 1200)
	res := Run(b, DefaultOptions())
	if res.Trace != nil {
		t.Errorf("trace recorded without opt-in: %d entries", len(res.Trace))
	}
	if len(res.Diffs) != res.Iterations {
		t.Errorf("diffs %d != iterations %d", len(res.Diffs), res.Iterations)
	}
}

// TestTraceRecorded: with the option on, one record per iteration whose
// MaxDelta equals the Diffs series exactly and whose sink masses are
// sane (finite, non-negative, bounded by total mass N).
func TestTraceRecorded(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	b := randomGraph(r, 300, 1800)
	opt := DefaultOptions()
	opt.ConvergenceTrace = true
	res := Run(b, opt)
	if len(res.Trace) != res.Iterations {
		t.Fatalf("trace %d entries, want %d", len(res.Trace), res.Iterations)
	}
	for i, s := range res.Trace {
		if s.MaxDelta != res.Diffs[i] {
			t.Errorf("iter %d: trace max-delta %g != diffs %g", i, s.MaxDelta, res.Diffs[i])
		}
		for _, m := range []float64{s.SinkMassID, s.SinkMassProp} {
			if math.IsNaN(m) || m < 0 || m > float64(b.N())+1e-6 {
				t.Errorf("iter %d: sink mass out of range: %+v", i, s)
			}
		}
	}
}

// TestTraceCapBounds: a run that cannot converge stops growing the trace
// at DefaultTraceCap while Diffs and the iteration count keep going.
func TestTraceCapBounds(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	b := randomGraph(r, 100, 600)
	opt := DefaultOptions()
	opt.ConvergenceTrace = true
	opt.Epsilon = 0 // unreachable: run to the iteration cap
	opt.MaxIterations = DefaultTraceCap + 10
	res := Run(b, opt)
	if len(res.Trace) != DefaultTraceCap {
		t.Errorf("trace grew past cap: %d entries", len(res.Trace))
	}
	if res.Iterations != opt.MaxIterations || len(res.Diffs) != opt.MaxIterations {
		t.Errorf("cap throttled the run itself: %d iterations, %d diffs", res.Iterations, len(res.Diffs))
	}
}

// TestTraceWorkerCountInsensitive: the trace is the same series for
// every worker count, to within floating-point reduction tolerance
// (sink masses are parallel float sums, like the ranks themselves —
// see TestWorkerCountInsensitive).
func TestTraceWorkerCountInsensitive(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	b := randomGraph(r, 500, 4000)
	opt := DefaultOptions()
	opt.ConvergenceTrace = true
	opt.Workers = 1
	base := Run(b, opt)
	if len(base.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	for _, w := range []int{2, 3, 8} {
		opt.Workers = w
		res := Run(b, opt)
		if len(res.Trace) != len(base.Trace) {
			t.Fatalf("workers=%d trace length %d != %d", w, len(res.Trace), len(base.Trace))
		}
		for i := range base.Trace {
			a, bb := base.Trace[i], res.Trace[i]
			if math.Abs(a.MaxDelta-bb.MaxDelta) > 1e-9 ||
				math.Abs(a.SinkMassID-bb.SinkMassID) > 1e-9 ||
				math.Abs(a.SinkMassProp-bb.SinkMassProp) > 1e-9 {
				t.Fatalf("workers=%d trace[%d] drifted: %+v vs %+v", w, i, a, bb)
			}
		}
	}
}
