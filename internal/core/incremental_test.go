package core

import (
	"math"
	"math/rand"
	"testing"

	"faultyrank/internal/graph"
)

// mutateEdges applies k random edge removals and k random additions to
// edges, returning the new edge list plus the dirty vertex set the
// online delta path would produce: every endpoint of a changed edge.
func mutateEdges(r *rand.Rand, n int, edges []graph.Edge, k int) ([]graph.Edge, []uint32) {
	out := append([]graph.Edge(nil), edges...)
	seen := map[uint32]struct{}{}
	touch := func(e graph.Edge) {
		seen[e.Src] = struct{}{}
		seen[e.Dst] = struct{}{}
	}
	for i := 0; i < k && len(out) > 0; i++ {
		j := r.Intn(len(out))
		touch(out[j])
		out[j] = out[len(out)-1]
		out = out[:len(out)-1]
	}
	for i := 0; i < k; i++ {
		e := graph.Edge{
			Src: uint32(r.Intn(n)), Dst: uint32(r.Intn(n)),
			Kind: graph.EdgeKind(r.Intn(5)),
		}
		touch(e)
		out = append(out, e)
	}
	dirty := make([]uint32, 0, len(seen))
	for v := range seen {
		dirty = append(dirty, v)
	}
	return out, dirty
}

func randomEdges(r *rand.Rand, n, m int) []graph.Edge {
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			Src: uint32(r.Intn(n)), Dst: uint32(r.Intn(n)),
			Kind: graph.EdgeKind(r.Intn(5)),
		}
	}
	return edges
}

// TestIncrementalMatchesWarmAfterDelta: after a small edge delta, a
// frontier run seeded from the previous fixed point lands within Epsilon
// (per vertex) of the warm full-sweep Run it replaces, in the same
// number of iterations. (Warm-vs-cold divergence at loose Epsilon is a
// property of warm starting itself, present since the warm path landed;
// finding-for-finding equivalence against cold runs is asserted at the
// online layer, where classification is what matters.)
func TestIncrementalMatchesWarmAfterDelta(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 50 + r.Intn(400)
		edges := randomEdges(r, n, 3*n)
		g1 := graph.NewBidirected(n, edges, 0)
		opt := DefaultOptions()
		prev := Run(g1, opt)

		edges2, dirty := mutateEdges(r, n, edges, 1+r.Intn(5))
		g2 := graph.NewBidirected(n, edges2, 0)

		warmOpt := opt
		warmOpt.InitialID = prev.IDRank
		warmOpt.InitialProp = prev.PropRank
		warm := Run(g2, warmOpt)
		inc := RunIncremental(g2, warmOpt, dirty)
		if !inc.Converged {
			t.Fatalf("seed %d: incremental run did not converge (%d iterations)", seed, inc.Iterations)
		}
		if inc.Frontier == nil {
			t.Fatalf("seed %d: incremental run has no frontier stats", seed)
		}
		if inc.Iterations > warm.Iterations+2 {
			t.Errorf("seed %d: incremental took %d iterations, warm full run %d",
				seed, inc.Iterations, warm.Iterations)
		}
		for v := range warm.IDRank {
			if d := math.Abs(inc.IDRank[v] - warm.IDRank[v]); d > opt.Epsilon {
				t.Fatalf("seed %d: vertex %d id rank diverged by %g (inc %g, warm %g)",
					seed, v, d, inc.IDRank[v], warm.IDRank[v])
			}
			if d := math.Abs(inc.PropRank[v] - warm.PropRank[v]); d > opt.Epsilon {
				t.Fatalf("seed %d: vertex %d prop rank diverged by %g", seed, v, d)
			}
		}
	}
}

// TestIncrementalTightEpsilon: at a much tighter Epsilon the propagation
// bound shrinks with it, so the frontier run must track the warm
// full-sweep trajectory to a tolerance orders of magnitude below any
// classification threshold.
func TestIncrementalTightEpsilon(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		n := 50 + r.Intn(150)
		edges := randomEdges(r, n, 3*n)
		g1 := graph.NewBidirected(n, edges, 0)
		opt := DefaultOptions()
		opt.Epsilon = 1e-9
		opt.MaxIterations = 20000
		prev := Run(g1, opt)
		if !prev.Converged {
			t.Fatalf("seed %d: tight-epsilon cold run on g1 did not converge", seed)
		}

		edges2, dirty := mutateEdges(r, n, edges, 2)
		g2 := graph.NewBidirected(n, edges2, 0)
		warmOpt := opt
		warmOpt.InitialID = prev.IDRank
		warmOpt.InitialProp = prev.PropRank
		warm := Run(g2, warmOpt)
		if !warm.Converged {
			t.Fatalf("seed %d: tight-epsilon warm run on g2 did not converge", seed)
		}

		inc := RunIncremental(g2, warmOpt, dirty)
		if !inc.Converged {
			t.Fatalf("seed %d: incremental run did not converge", seed)
		}
		for v := range warm.IDRank {
			if d := math.Abs(inc.IDRank[v] - warm.IDRank[v]); d > 1e-9 {
				t.Fatalf("seed %d: vertex %d id rank off by %g at tight epsilon", seed, v, d)
			}
			if d := math.Abs(inc.PropRank[v] - warm.PropRank[v]); d > 1e-9 {
				t.Fatalf("seed %d: vertex %d prop rank off by %g at tight epsilon", seed, v, d)
			}
		}
	}
}

// TestIncrementalWorkerDeterminism: the frontier kernel keeps the
// canonical sink fold, so results are bit-identical for any worker
// count. The delta is wide and saturation is off, so the list sweeps
// span several blocks of frontier rows and run on several workers.
func TestIncrementalWorkerDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 3 * sinkBlock
	edges := randomEdges(r, n, 3*n)
	g1 := graph.NewBidirected(n, edges, 0)
	opt := DefaultOptions()
	opt.frontierSaturation = 1
	prev := Run(g1, opt)
	edges2, dirty := mutateEdges(r, n, edges, n/8)
	g2 := graph.NewBidirected(n, edges2, 0)

	var ref *Result
	for _, w := range []int{1, 2, 7} {
		wopt := opt
		wopt.Workers = w
		wopt.InitialID = prev.IDRank
		wopt.InitialProp = prev.PropRank
		got := RunIncremental(g2, wopt, dirty)
		if got.Frontier.Saturated || got.Frontier.MaxActive <= sinkBlock {
			t.Fatalf("workers=%d: list sweeps never spanned two blocks: %+v", w, got.Frontier)
		}
		if ref == nil {
			ref = got
			continue
		}
		assertSameResult(t, got, ref)
	}
}

// TestIncrementalSaturationFallback: a delta touching more than the
// saturation fraction makes the run fall back to full sweeps — and an
// incremental run forced to full sweeps from its first iteration is
// bit-identical to the plain warm Run it replaces, over several row
// blocks and workers: a full sweep IS a Run iteration.
func TestIncrementalSaturationFallback(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	n := sinkBlock + 200
	edges := randomEdges(r, n, 3*n)
	g1 := graph.NewBidirected(n, edges, 0)
	opt := DefaultOptions()
	opt.Workers = 3
	opt.frontierSaturation = 0.05
	prev := Run(g1, opt)
	edges2, dirty := mutateEdges(r, n, edges, n/10)
	g2 := graph.NewBidirected(n, edges2, 0)

	warmOpt := opt
	warmOpt.InitialID = prev.IDRank
	warmOpt.InitialProp = prev.PropRank
	inc := RunIncremental(g2, warmOpt, dirty)
	if !inc.Frontier.Saturated || inc.Frontier.FullSweeps != 2*inc.Iterations {
		t.Fatalf("expected full sweeps throughout with %d dirty vertices over cap %g·%d, got %+v",
			len(dirty), opt.frontierSaturation, n, inc.Frontier)
	}
	assertSameResult(t, inc, Run(g2, warmOpt))
}

// TestIncrementalEmptyDelta: with no dirty vertices and an already
// converged warm seed, the run spends only the verification sweep — the
// frontier itself touches nothing.
func TestIncrementalEmptyDelta(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 150
	g := randomGraph(r, n, 450)
	opt := DefaultOptions()
	prev := Run(g, opt)
	if !prev.Converged {
		t.Fatal("cold run did not converge")
	}

	warmOpt := opt
	warmOpt.InitialID = prev.IDRank
	warmOpt.InitialProp = prev.PropRank
	inc := RunIncremental(g, warmOpt, nil)
	if !inc.Converged {
		t.Fatal("incremental run on an unchanged graph did not converge")
	}
	if inc.Frontier.Seeds != 0 || inc.Frontier.MaxActive != 0 {
		t.Fatalf("expected an empty frontier, got %+v", inc.Frontier)
	}
	// One quiet frontier iteration, then the full verification sweep.
	if inc.Frontier.FullSweeps < 2 {
		t.Fatalf("expected the verification sweep to run, got %+v", inc.Frontier)
	}
	if want := int64(2 * n); inc.Frontier.Touched > want {
		t.Fatalf("touched %d vertices, want <= %d (verification only)", inc.Frontier.Touched, want)
	}
}

// TestIncrementalDelegatesWithoutWarmState: no warm vectors means there
// is nothing to be incremental against; the call must behave exactly
// like Run.
func TestIncrementalDelegatesWithoutWarmState(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := randomGraph(r, 80, 240)
	opt := DefaultOptions()
	cold := Run(g, opt)
	inc := RunIncremental(g, opt, []uint32{1, 2, 3})
	if inc.Frontier != nil {
		t.Fatal("delegated run should not report frontier stats")
	}
	if inc.Iterations != cold.Iterations {
		t.Fatalf("delegated run took %d iterations, cold %d", inc.Iterations, cold.Iterations)
	}
	for v := range cold.IDRank {
		if inc.IDRank[v] != cold.IDRank[v] {
			t.Fatalf("delegated run differs at vertex %d", v)
		}
	}
}

// TestIncrementalOutOfRangeDirtyIgnored: dirty entries beyond N (stale
// GIDs from a shrunken graph) are skipped, not crashed on.
func TestIncrementalOutOfRangeDirtyIgnored(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	g := randomGraph(r, 40, 120)
	opt := DefaultOptions()
	prev := Run(g, opt)
	warmOpt := opt
	warmOpt.InitialID = prev.IDRank
	warmOpt.InitialProp = prev.PropRank
	inc := RunIncremental(g, warmOpt, []uint32{0, 39, 40, 1 << 30})
	if !inc.Converged {
		t.Fatal("run did not converge")
	}
	if inc.Frontier.Seeds != 2 {
		t.Fatalf("expected 2 valid seeds, got %d", inc.Frontier.Seeds)
	}
}
