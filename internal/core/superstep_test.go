package core

import (
	"math"
	"math/rand"
	"testing"

	"faultyrank/internal/graph"
	"faultyrank/internal/rmat"
)

// exactlyEqual compares float slices bit for bit — the partitioned
// kernel promises bitwise reproduction of the single-process kernel,
// not merely closeness.
func exactlyEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x) want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// AssertSameResult exports assertSameResult to the external matrix test.
var AssertSameResult = assertSameResult

func assertSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	exactlyEqual(t, "IDRank", got.IDRank, want.IDRank)
	exactlyEqual(t, "PropRank", got.PropRank, want.PropRank)
	exactlyEqual(t, "Diffs", got.Diffs, want.Diffs)
	if got.Iterations != want.Iterations {
		t.Fatalf("Iterations = %d want %d", got.Iterations, want.Iterations)
	}
	if got.Converged != want.Converged || got.Skipped != want.Skipped {
		t.Fatalf("Converged, Skipped = %v, %v want %v, %v", got.Converged, got.Skipped, want.Converged, want.Skipped)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("Trace length %d want %d", len(got.Trace), len(want.Trace))
	}
	for i := range got.Trace {
		if got.Trace[i] != want.Trace[i] {
			t.Fatalf("Trace[%d] = %+v want %+v", i, got.Trace[i], want.Trace[i])
		}
	}
}

func testOwners(n, k int, seed int64) []uint16 {
	rng := rand.New(rand.NewSource(seed))
	owners := make([]uint16, n)
	for i := range owners {
		owners[i] = uint16(rng.Intn(k))
	}
	return owners
}

func testGraphs(t *testing.T) map[string]*graph.Bidirected {
	t.Helper()
	graphs := map[string]*graph.Bidirected{}

	// RMAT at a small scale: the skewed-degree shape of the paper's
	// scalability graphs, including multi-edges and self-loops.
	edges := rmat.Generate(rmat.Graph500(8, 8, 42), 4)
	graphs["rmat8"] = graph.NewBidirectedUntyped(1<<8, edges, 4)

	// A sparse random graph with injected faults: drop some back-edges
	// so paired/unpaired classification and sink structure get
	// exercised, plus guaranteed sinks and isolated vertices.
	rng := rand.New(rand.NewSource(7))
	n := 300
	var faulty []graph.Edge
	for i := 0; i < 900; i++ {
		src, dst := uint32(rng.Intn(n-20)), uint32(rng.Intn(n-20))
		faulty = append(faulty, graph.Edge{Src: src, Dst: dst})
		if rng.Intn(3) != 0 { // two thirds paired, one third unpaired
			faulty = append(faulty, graph.Edge{Src: dst, Dst: src})
		}
	}
	graphs["faulty"] = graph.NewBidirected(n, faulty, 4)

	graphs["empty"] = graph.NewBidirected(0, nil, 1)
	graphs["edgeless"] = graph.NewBidirected(5, nil, 1)
	graphs["single"] = graph.NewBidirected(1, []graph.Edge{{Src: 0, Dst: 0}}, 1)
	return graphs
}

// TestPartitionedMatchesRunExact is the central equivalence property:
// for every graph shape, option set, partition count and owners map,
// the partitioned execution must reproduce the single-process kernel
// bit for bit — ranks, convergence trace, iteration count, everything.
// The partitioned execution iterates whatever it is handed, so the
// reference always ranks.
func TestPartitionedMatchesRunExact(t *testing.T) {
	options := map[string]Options{
		"default": rankOptions(),
	}
	o := rankOptions()
	o.Smoothing = 0
	options["unsmoothed"] = o
	o = rankOptions()
	o.LeakyDistribution = true
	options["leaky"] = o
	o = rankOptions()
	o.SinkPolicy = SinkToAll
	options["sink-all"] = o
	o = rankOptions()
	o.SinkPolicy = SinkDrop
	options["sink-drop"] = o
	o = rankOptions()
	o.UnpairedWeight = 0
	options["weight-zero"] = o
	o = rankOptions()
	o.Epsilon = 0 // unreachable: run to the iteration cap, past the trace cap
	o.MaxIterations = DefaultTraceCap + 3
	o.ConvergenceTrace = true
	options["capped-traced"] = o

	for gname, b := range testGraphs(t) {
		for oname, opt := range options {
			want := Run(b, opt)
			if b.N() > 0 {
				mustHaveRanked(t, want)
			}
			for _, k := range []int{1, 2, 3, 8} {
				owners := testOwners(b.N(), k, int64(k)*31+int64(len(gname)))
				plan := graph.PartitionPlan(b, owners, k, 4)
				got, rep, err := RunPartitioned(plan, opt)
				if err != nil {
					t.Fatalf("%s/%s k=%d: %v", gname, oname, k, err)
				}
				assertSameResult(t, got, want)
				if rep.K != k || len(rep.Partitions) != k {
					t.Fatalf("%s/%s k=%d: report K=%d partitions=%d", gname, oname, k, rep.K, len(rep.Partitions))
				}
				if len(rep.Supersteps) != want.Iterations {
					t.Fatalf("%s/%s k=%d: %d supersteps for %d iterations", gname, oname, k, len(rep.Supersteps), want.Iterations)
				}
				if want.Iterations > 0 && (rep.UpBytes <= 0 || rep.DownBytes <= 0) {
					t.Fatalf("%s/%s k=%d: empty exchange accounting %+v", gname, oname, k, rep)
				}
			}
		}
	}
}

// TestPartitionedWarmStartExact: warm seeds flow through the
// coordinator's rescale+scatter and still match the legacy kernel
// exactly.
func TestPartitionedWarmStartExact(t *testing.T) {
	b := testGraphs(t)["faulty"]
	cold := Run(b, DefaultOptions())

	opt := DefaultOptions()
	opt.InitialID = cold.IDRank
	opt.InitialProp = cold.PropRank
	// Scale the seed off the mass-N manifold so rescaleMass has work.
	for i := range opt.InitialID {
		opt.InitialID[i] *= 3.5
	}
	want := Run(b, opt)
	for _, k := range []int{2, 3} {
		plan := graph.PartitionPlan(b, testOwners(b.N(), k, 99), k, 4)
		got, _, err := RunPartitioned(plan, opt)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		assertSameResult(t, got, want)
	}
}

// TestPartitionedZeroIterations: MaxIterations=0 short-circuits through
// Init.Halt and returns the seeded ranks unchanged, like the legacy
// loop that never runs.
func TestPartitionedZeroIterations(t *testing.T) {
	b := testGraphs(t)["faulty"]
	opt := DefaultOptions()
	opt.MaxIterations = 0
	want := Run(b, opt)
	plan := graph.PartitionPlan(b, testOwners(b.N(), 3, 5), 3, 4)
	got, rep, err := RunPartitioned(plan, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, got, want)
	if len(rep.Supersteps) != 0 {
		t.Fatalf("zero-iteration run recorded %d supersteps", len(rep.Supersteps))
	}
}

// TestPartErrorNamesPartition: the error type the degraded path
// surfaces must carry the partition index.
func TestPartErrorNamesPartition(t *testing.T) {
	err := &PartError{Part: 5, Err: errLinkClosed}
	if got := err.Error(); got != "rank partition 5: core: rank link closed" {
		t.Fatalf("PartError.Error() = %q", got)
	}
}
