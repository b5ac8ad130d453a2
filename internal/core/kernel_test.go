package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"faultyrank/internal/graph"
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

// testVector returns n positive values with no two equal, so a gather
// that picks the wrong column or order changes the sum's bits.
func testVector(r *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 0.25 + r.Float64()*3
	}
	return xs
}

// TestKernelSweepsAgree: the same phase over the same inputs yields
// bit-identical next values whether the rows are swept densely, as an
// explicit list in shuffled order, or shard by shard over K local column
// spaces — for both phases, every sink policy and both distributions.
// This is the property that lets Run, RunIncremental and RunPartition
// share the kernel.
func TestKernelSweepsAgree(t *testing.T) {
	b := kernelTestGraph()
	n := b.N()
	phases := []struct {
		name string
		run  func(k *kernel, rows rowSet, src, cur, next []float64, base, perSink float64)
		inv  func(k *kernel) []float64
	}{
		{"A", (*kernel).phaseA, func(k *kernel) []float64 { return k.invOut }},
		{"B", (*kernel).phaseB, func(k *kernel) []float64 { return k.invW }},
	}
	for _, policy := range []SinkPolicy{SinkToOthers, SinkToAll, SinkDrop} {
		for _, leaky := range []bool{false, true} {
			for _, ph := range phases {
				t.Run(fmt.Sprintf("%s/%v/leaky=%v", ph.name, policy, leaky), func(t *testing.T) {
					opt := DefaultOptions()
					opt.SinkPolicy, opt.LeakyDistribution, opt.Workers = policy, leaky, 3
					r := rand.New(rand.NewSource(7))
					src, cur := testVector(r, n), testVector(r, n)
					k := graphKernel(b, opt)
					base, perSink := sinkShares(sinkMass(src, ph.inv(k), 1), n, policy)
					if policy == SinkToOthers && perSink == 0 {
						t.Fatal("fixture has no sink mass: the self-exclusion term is not exercised")
					}

					dense := make([]float64, n)
					ph.run(k, allRows(n), src, cur, dense, base, perSink)

					unset := math.NaN()
					listed := filled(n, unset)
					order := make([]uint32, n)
					for i, v := range r.Perm(n) {
						order[i] = uint32(v)
					}
					ph.run(k, listRows(order), src, cur, listed, base, perSink)
					exactlyEqual(t, "row-list sweep", listed, dense)

					for _, parts := range []int{2, 3} {
						plan := graph.PartitionPlan(b, testOwners(n, parts, int64(parts)), parts, 1)
						union := filled(n, unset)
						for _, sub := range plan.Parts {
							cols := append(append([]uint32(nil), sub.Local...), sub.Ghosts...)
							srcCols, curCols := make([]float64, len(cols)), make([]float64, len(cols))
							for c, g := range cols {
								srcCols[c], curCols[c] = src[g], cur[g]
							}
							next := make([]float64, len(cols))
							ph.run(shardKernel(sub, opt), allRows(sub.NLocal()), srcCols, curCols, next, base, perSink)
							for l, g := range sub.Local {
								union[g] = next[l]
							}
						}
						exactlyEqual(t, fmt.Sprintf("union of %d shard sweeps", parts), union, dense)
					}
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
	k := graphKernel(b, opt)
	src, cur := filled(n, 1), filled(n, 1)
	empty := newVertSet(n) // never marked: its list is nil
	for name, run := range map[string]func(rowSet, []float64){
		"A": func(rows rowSet, next []float64) { k.phaseA(rows, src, cur, next, 0.5, 0.25) },
		"B": func(rows rowSet, next []float64) { k.phaseB(rows, src, cur, next, 0.5, 0.25) },
	} {
		next := filled(n, -1)
		run(listRows(empty.list), next)
		for v, x := range next {
			if x != -1 {
				t.Fatalf("phase %s over an empty row list rewrote row %d", name, v)
			}
		}
	}

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
