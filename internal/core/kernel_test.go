package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"faultyrank/internal/graph"
	"faultyrank/internal/rmat"
)

// kernelTestGraph is a 12-vertex multigraph with everything the phase
// equations branch on: a hub (0) pointed at by most vertices, paired and
// unpaired edges, a duplicated edge, forward sinks (9, 10: no out-edges),
// a reversed-graph sink (8: no in-edges) and an isolated vertex (11: a
// sink in both orientations).
func kernelTestGraph() *graph.Bidirected {
	e := func(s, d uint32) graph.Edge { return graph.Edge{Src: s, Dst: d} }
	edges := []graph.Edge{
		e(1, 0), e(2, 0), e(3, 0), e(4, 0), e(5, 0), e(6, 0), e(7, 0), e(8, 0),
		e(0, 1), e(0, 2), e(0, 3), // paired with the hub's in-edges
		e(1, 2), e(2, 1), // a paired pair off the hub
		e(3, 4), e(3, 4), // duplicate
		e(4, 5), e(5, 6), e(6, 7), // an unpaired chain
		e(7, 9), e(8, 9), e(6, 10), // into the forward sinks
		e(8, 3),
	}
	return graph.NewBidirected(12, edges, 1)
}

// UnpairedSinkGraph is a random n-vertex graph with one unpaired edge in
// three and every seventh vertex isolated, so each row block holds sinks
// of both orientations. Exported for the external matrix test.
func UnpairedSinkGraph(n int) *graph.Bidirected {
	r := rand.New(rand.NewSource(int64(n)))
	var edges []graph.Edge
	for i := 0; i < 2*n; i++ {
		src, dst := uint32(r.Intn(n)), uint32(r.Intn(n))
		if src%7 == 0 || dst%7 == 0 {
			continue
		}
		edges = append(edges, graph.Edge{Src: src, Dst: dst})
		if r.Intn(3) != 0 {
			edges = append(edges, graph.Edge{Src: dst, Dst: src})
		}
	}
	return graph.NewBidirected(n, edges, 0)
}

// blockSpanningGraph is neither below sinkBlock nor a multiple of it:
// three row blocks, the last one short.
func blockSpanningGraph() *graph.Bidirected { return UnpairedSinkGraph(2*sinkBlock + 517) }

// testVector returns n positive values with no two equal, so a gather
// that picks the wrong column or order changes the sum's bits.
func testVector(r *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 0.25 + r.Float64()*3
	}
	return xs
}

// TestKernelSweepsAgree: one iteration over the same seeds leaves
// bit-identical state whether both phases sweep densely or walk an
// explicit row list in shuffled order — rank and scaled vectors, max |Δ|,
// and the sink partials, which the dense sweep emits and the list path
// recomputes block by block. For every sink policy and both
// distributions. This is the property that lets Run and RunIncremental
// share the kernel; the partition matrix holds the shards to it.
func TestKernelSweepsAgree(t *testing.T) {
	for gname, b := range map[string]*graph.Bidirected{"small": kernelTestGraph(), "blocks": blockSpanningGraph()} {
		n := b.N()
		for _, policy := range []SinkPolicy{SinkToOthers, SinkToAll, SinkDrop} {
			for _, leaky := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/leaky=%v", gname, policy, leaky), func(t *testing.T) {
					opt := DefaultOptions()
					opt.SinkPolicy, opt.LeakyDistribution, opt.Workers = policy, leaky, 3
					r := rand.New(rand.NewSource(7))
					id0, prop0 := testVector(r, n), testVector(r, n)
					order := make([]uint32, n)
					for i, v := range r.Perm(n) {
						order[i] = uint32(v)
					}

					iterate := func(rows rowSet) (*kernel, float64) {
						k := graphKernel(b, opt, &workspace{})
						defer k.stop()
						k.seed(slices.Clone(id0), slices.Clone(prop0))
						rescale := func() {
							if !rows.dense {
								for blk := range k.partA {
									k.scale(blk)
								}
							}
						}
						base, perSink := sinkShares(foldBlocks(k.partA), n, policy)
						if policy == SinkToOthers && perSink == 0 {
							t.Fatal("fixture has no sink mass: the self-exclusion term is not exercised")
						}
						maxDelta := k.phaseA(rows, base, perSink)
						rescale()
						base, perSink = sinkShares(foldBlocks(k.partB), n, policy)
						k.phaseB(rows, base, perSink)
						rescale()
						return k, maxDelta
					}
					dense, denseMax := iterate(allRows(n))
					listed, listedMax := iterate(listRows(order))
					exactlyEqual(t, "max delta", []float64{listedMax}, []float64{denseMax})
					exactlyEqual(t, "id", listed.id, dense.id)
					exactlyEqual(t, "prop", listed.prop, dense.prop)
					exactlyEqual(t, "sID", listed.sID, dense.sID)
					exactlyEqual(t, "sProp", listed.sProp, dense.sProp)
					exactlyEqual(t, "partA", listed.partA, dense.partA)
					exactlyEqual(t, "partB", listed.partB, dense.partB)
				})
			}
		}
	}
}

func filled(n int, v float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

// TestKernelEmptyRowList: an empty frontier is a nil list, and it must
// evaluate no row at all — not fall back to a dense sweep. The frontier
// accounting shows the same thing end to end: a delta check with nothing
// dirty on converged ranks costs exactly the two verification sweeps.
func TestKernelEmptyRowList(t *testing.T) {
	b := kernelTestGraph()
	n := b.N()
	opt := DefaultOptions()
	k := graphKernel(b, opt, &workspace{})
	defer k.stop()
	k.seed(filled(n, 1), filled(n, 1))
	empty := newVertSet(n) // never marked: its list is nil
	if d := k.phaseA(listRows(empty.list), 0.5, 0.25); d != 0 {
		t.Fatalf("phase A over an empty row list reports max delta %v", d)
	}
	k.phaseB(listRows(empty.list), 0.5, 0.25)
	exactlyEqual(t, "id", k.id, filled(n, 1))
	exactlyEqual(t, "prop", k.prop, filled(n, 1))

	tight := opt
	tight.Epsilon = 1e-12
	tight.MaxIterations = 10000
	fixed := Run(b, tight)
	if !fixed.Converged {
		t.Fatal("fixture did not reach its fixed point")
	}
	opt.InitialID, opt.InitialProp = fixed.IDRank, fixed.PropRank
	res := RunIncremental(b, opt, nil)
	want := FrontierStats{FullSweeps: 2, Touched: int64(2 * n)}
	if res.Frontier == nil || *res.Frontier != want {
		t.Fatalf("empty delta frontier stats = %+v, want %+v", res.Frontier, want)
	}
	if !res.Converged || res.Iterations != 2 {
		t.Fatalf("empty delta: converged=%v after %d iterations, want the quiet round plus its verification", res.Converged, res.Iterations)
	}
}

// TestRunRepeatsEqual: blocks go to whichever worker asks first, so the
// assignment differs from run to run; the result must not. Run it under
// -race — it is also the test that the hand-out shares nothing but the
// counter.
func TestRunRepeatsEqual(t *testing.T) {
	b := blockSpanningGraph()
	opt := DefaultOptions()
	opt.Workers = 1
	want := Run(b, opt)
	opt.Workers = 4
	for i := 0; i < 20; i++ {
		assertSameResult(t, Run(b, opt), want)
	}
}

// TestRunAllocsIndependentOfIterations: an iteration, fan-out included,
// allocates nothing but Result.Diffs' growth — and 33 and 64 iterations
// grow it through the same append steps, so the two counts must be
// equal, not merely close.
func TestRunAllocsIndependentOfIterations(t *testing.T) {
	b := blockSpanningGraph()
	opt := DefaultOptions()
	opt.Epsilon = 0 // never converges: the cap decides the count
	opt.Workers = 3
	allocs := func(iters int) float64 {
		opt.MaxIterations = iters
		return testing.AllocsPerRun(5, func() {
			if r := Run(b, opt); r.Iterations != iters {
				t.Fatalf("ran %d iterations, want %d", r.Iterations, iters)
			}
		})
	}
	if short, long := allocs(33), allocs(64); short != long {
		t.Fatalf("Run allocates %v objects over 33 iterations and %v over 64", short, long)
	}
}

// metadataShapedEdges mimics the unified metadata graph: the first fifth
// of the vertices are MDT inodes in an 8-ary namespace tree, the rest
// are stripe objects of those inodes, and every relation is a typed,
// paired point-to/point-back — two edges per vertex, three fifths of
// them leaving the first fifth of the rows.
func metadataShapedEdges(n int) []graph.Edge {
	r := rand.New(rand.NewSource(1))
	mdt := n / 5
	edges := make([]graph.Edge, 0, 2*n)
	for v := 1; v < n; v++ {
		owner, to, back := uint32((v-1)/8), graph.KindDirent, graph.KindLinkEA
		if v >= mdt {
			owner, to, back = uint32(r.Intn(mdt)), graph.KindLOVEA, graph.KindFilterFID
		}
		edges = append(edges, graph.Edge{Src: owner, Dst: uint32(v), Kind: to}, graph.Edge{Src: uint32(v), Dst: owner, Kind: back})
	}
	return edges
}

func metadataShapedGraph(n int) *graph.Bidirected {
	return graph.NewBidirected(n, metadataShapedEdges(n), 0)
}

// namespaceOrdered renumbers a metadata-shaped edge list the way ROADMAP
// item 2 would have agg number a cluster: breadth-first from the root,
// a directory's children in row order, every inode's stripe objects
// right after it. It is the best case of that item's cold half, bought
// here with a test-side permutation instead of a merge pass.
func namespaceOrdered(n int, edges []graph.Edge) []graph.Edge {
	kids, objs := make([][]uint32, n), make([][]uint32, n)
	for _, e := range edges {
		switch e.Kind {
		case graph.KindDirent:
			kids[e.Src] = append(kids[e.Src], e.Dst)
		case graph.KindLOVEA:
			objs[e.Src] = append(objs[e.Src], e.Dst)
		}
	}
	perm, next := make([]uint32, n), uint32(0)
	label := func(v uint32) {
		perm[v], next = next, next+1
		for _, o := range objs[v] {
			perm[o], next = next, next+1
		}
	}
	label(0)
	for queue := []uint32{0}; len(queue) > 0; queue = queue[1:] {
		for _, c := range kids[queue[0]] {
			label(c)
			if len(kids[c]) > 0 {
				queue = append(queue, c)
			}
		}
	}
	if int(next) != n {
		panic(fmt.Sprintf("namespace order reached %d of %d vertices", next, n))
	}
	out := make([]graph.Edge, len(edges))
	for i, e := range edges {
		out[i] = graph.Edge{Src: perm[e.Src], Dst: perm[e.Dst], Kind: e.Kind}
	}
	return out
}

// BenchmarkKernel times Run alone — the CSR is built outside the timer —
// for a fixed 32 iterations on the two degree regimes the spine's
// workloads have: R-MAT scale 16 with edge factor 8, and a typed
// metadata-shaped graph with two edges per vertex — at cold_check_tcp's
// size, at fault_repair's, where a sweep is short enough for its fan-out
// to show, and at the first size again in namespace order.
func BenchmarkKernel(b *testing.B) {
	graphs := []struct {
		name string
		g    *graph.Bidirected
	}{
		{"rmat16x8", graph.NewBidirectedUntyped(1<<16, rmat.Generate(rmat.Graph500(16, 8, 1), 0), 0)},
		{"metadata120k", metadataShapedGraph(120000)},
		{"metadata35k", metadataShapedGraph(35000)},
		{"metadata120k-nsorder", graph.NewBidirected(120000, namespaceOrdered(120000, metadataShapedEdges(120000)), 0)},
	}
	for _, tc := range graphs {
		for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, w), func(b *testing.B) {
				opt := rankOptions() // the metadata-shaped graphs are paired
				opt.Workers, opt.Epsilon, opt.MaxIterations = w, 0, 32
				b.ReportAllocs()
				for b.Loop() {
					Run(tc.g, opt)
				}
				edgeIters := float64(tc.g.Fwd.NumEdges()) * float64(opt.MaxIterations)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/edgeIters, "ns/edge-iter")
			})
		}
	}
}
