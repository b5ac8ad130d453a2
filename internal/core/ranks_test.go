package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"faultyrank/internal/graph"
)

func randomGraph(r *rand.Rand, n, m int) *graph.Bidirected {
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			Src: uint32(r.Intn(n)), Dst: uint32(r.Intn(n)),
			Kind: graph.EdgeKind(r.Intn(5)),
		}
	}
	return graph.NewBidirected(n, edges, 0)
}

// symmetricGraph returns a fully paired random graph: every point-to has
// its point-back, i.e. a consistent file system image.
func symmetricGraph(r *rand.Rand, n, pairs int) *graph.Bidirected {
	var edges []graph.Edge
	for i := 0; i < pairs; i++ {
		u, v := uint32(r.Intn(n)), uint32(r.Intn(n))
		if u == v {
			continue
		}
		edges = append(edges, graph.Edge{Src: u, Dst: v, Kind: graph.KindDirent},
			graph.Edge{Src: v, Dst: u, Kind: graph.KindLinkEA})
	}
	return graph.NewBidirected(n, edges, 0)
}

func TestRunEmptyGraph(t *testing.T) {
	b := graph.NewBidirected(0, nil, 0)
	res := Run(b, DefaultOptions())
	if !res.Converged || len(res.IDRank) != 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

// rankOptions is DefaultOptions with AlwaysRank: the options of a test
// of the kernel itself on a fixture that may have no unpaired edge.
func rankOptions() Options {
	opt := DefaultOptions()
	opt.AlwaysRank = true
	return opt
}

// mustHaveRanked fails a kernel test whose run did not iterate — an
// AlwaysRank fixture that skipped would test nothing.
func mustHaveRanked(t testing.TB, res *Result) {
	t.Helper()
	if res.Skipped || res.Iterations == 0 {
		t.Fatalf("run did not iterate: skipped=%v iterations=%d", res.Skipped, res.Iterations)
	}
}

func TestRunSingleVertex(t *testing.T) {
	b := graph.NewBidirected(1, nil, 0)
	res := Run(b, rankOptions())
	mustHaveRanked(t, res)
	if !res.Converged {
		t.Fatal("single vertex should converge")
	}
}

func TestRunEdgelessGraph(t *testing.T) {
	// All vertices are sinks; mass circulates via sink redistribution.
	b := graph.NewBidirected(5, nil, 0)
	for _, policy := range []SinkPolicy{SinkToOthers, SinkToAll} {
		opt := rankOptions()
		opt.SinkPolicy = policy
		res := Run(b, opt)
		mustHaveRanked(t, res)
		var sum float64
		for _, x := range res.IDRank {
			sum += x
		}
		if math.Abs(sum-5) > 1e-9 {
			t.Errorf("policy %v: mass = %f, want 5", policy, sum)
		}
	}
}

// TestMassConservationProperty: with conserving sink policies, the total
// ID and Property mass stays N through arbitrary graphs and iterations.
func TestMassConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(60)
		b := randomGraph(r, n, r.Intn(300))
		for _, policy := range []SinkPolicy{SinkToOthers, SinkToAll} {
			opt := rankOptions()
			opt.SinkPolicy = policy
			opt.Epsilon = 1e-9
			opt.MaxIterations = 50
			res := Run(b, opt)
			if res.Iterations == 0 {
				return false
			}
			var idSum, propSum float64
			for i := range res.IDRank {
				idSum += res.IDRank[i]
				propSum += res.PropRank[i]
			}
			if math.Abs(idSum-float64(n)) > 1e-6*float64(n) {
				return false
			}
			if math.Abs(propSum-float64(n)) > 1e-6*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSinkDropLosesMass: the ablation policy must strictly decay mass on
// any graph that has at least one sink holding rank.
func TestSinkDropLosesMass(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}} // 2 is a sink
	b := graph.NewBidirected(3, edges, 0)
	opt := DefaultOptions()
	opt.SinkPolicy = SinkDrop
	opt.MaxIterations = 5
	opt.Epsilon = 0
	res := Run(b, opt)
	var sum float64
	for _, x := range res.IDRank {
		sum += x
	}
	if sum >= 3 {
		t.Fatalf("mass %f should have decayed below 3", sum)
	}
}

// TestConsistentGraphNoSuspects: on a fully paired graph FaultyRank must
// not flag anything, regardless of degree skew (the paper stresses that
// low-degree but consistent vertices stay healthy).
func TestConsistentGraphNoSuspects(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(80)
		b := symmetricGraph(r, n, r.Intn(200))
		opt := DefaultOptions()
		res := Run(b, opt)
		rep := Detect(b, res, nil, opt)
		return len(rep.Suspects) == 0 && len(rep.Repairs) == 0 && len(rep.Ambiguous) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicForFixedWorkers: identical inputs and worker count
// produce bit-identical ranks.
func TestDeterministicForFixedWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	b := randomGraph(r, 300, 2000)
	opt := DefaultOptions()
	opt.Workers = 4
	a := Run(b, opt)
	c := Run(b, opt)
	for i := range a.IDRank {
		if a.IDRank[i] != c.IDRank[i] || a.PropRank[i] != c.PropRank[i] {
			t.Fatalf("nondeterministic at vertex %d", i)
		}
	}
}

// TestWorkerCountInsensitive: ranks agree across worker counts to within
// floating-point reduction tolerance.
func TestWorkerCountInsensitive(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	b := randomGraph(r, 500, 4000)
	opt := DefaultOptions()
	opt.Workers = 1
	base := Run(b, opt)
	for _, w := range []int{2, 3, 8} {
		opt.Workers = w
		res := Run(b, opt)
		if res.Iterations != base.Iterations {
			t.Fatalf("workers=%d iterations %d != %d", w, res.Iterations, base.Iterations)
		}
		for i := range base.IDRank {
			if math.Abs(res.IDRank[i]-base.IDRank[i]) > 1e-9 {
				t.Fatalf("workers=%d idrank[%d] drifted: %g vs %g", w, i, res.IDRank[i], base.IDRank[i])
			}
		}
	}
}

// TestConvergenceTrace: diffs decrease overall and the run terminates in
// fewer than 20 iterations at the paper's epsilon on realistic graphs.
func TestConvergenceTrace(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	b := symmetricGraph(r, 200, 400)
	opt := rankOptions()
	res := Run(b, opt)
	mustHaveRanked(t, res)
	if !res.Converged {
		t.Fatal("not converged")
	}
	if res.Iterations >= 20 {
		t.Errorf("iterations = %d, paper reports <20", res.Iterations)
	}
	if len(res.Diffs) != res.Iterations {
		t.Errorf("diff trace length %d != iterations %d", len(res.Diffs), res.Iterations)
	}
	last := res.Diffs[len(res.Diffs)-1]
	if last >= opt.Epsilon {
		t.Errorf("final diff %f >= epsilon", last)
	}
}

// TestMaxIterationsCap: a tiny cap stops the loop unconverged.
func TestMaxIterationsCap(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	b := randomGraph(r, 100, 500)
	opt := DefaultOptions()
	opt.Epsilon = 0 // unreachable
	opt.MaxIterations = 3
	res := Run(b, opt)
	if res.Converged || res.Iterations != 3 {
		t.Fatalf("converged=%v iterations=%d", res.Converged, res.Iterations)
	}
}

// TestNormalizedSumsToOne: the Table II presentation sums to ~1.
func TestNormalizedSumsToOne(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	b := randomGraph(r, 64, 256)
	res := Run(b, DefaultOptions())
	var s float64
	for _, x := range res.NormalizedID() {
		s += x
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("normalized id sum = %f", s)
	}
	s = 0
	for _, x := range res.NormalizedProp() {
		s += x
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("normalized prop sum = %f", s)
	}
}

// TestUnpairedWeightOne matches the unweighted distribution the paper's
// Table II numbers imply (see sweep_test.go): with weight 1.0 the run
// must still isolate the same two faulty fields on the Fig. 3 graph.
func TestUnpairedWeightOne(t *testing.T) {
	n, edges := fig3Edges()
	b := graph.NewBidirected(n, edges, 0)
	opt := DefaultOptions()
	opt.UnpairedWeight = 1.0
	res := Run(b, opt)
	rep := Detect(b, res, nil, opt)
	if !rep.Suspected(2, FieldProperty) || !rep.Suspected(3, FieldID) {
		t.Fatalf("suspects: %+v", rep.Suspects)
	}
}

func TestOptionsHelpers(t *testing.T) {
	var o Options
	if o.workers() <= 0 {
		t.Error("workers() must be positive for zero Options")
	}
	if o.attributionSlack() != 2.0 {
		t.Errorf("default slack = %f", o.attributionSlack())
	}
	o.AttributionSlack = 1.5
	if o.attributionSlack() != 1.5 {
		t.Error("explicit slack ignored")
	}
	for _, p := range []SinkPolicy{SinkToOthers, SinkToAll, SinkDrop, SinkPolicy(9)} {
		if p.String() == "" {
			t.Error("empty sink policy name")
		}
	}
}
