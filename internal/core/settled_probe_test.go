package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"faultyrank/internal/agg"
	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/rmat"
	"faultyrank/internal/scanner"
	"faultyrank/internal/workload"
)

// BenchmarkProbeSettledRows is the measurement ROADMAP item 8(a) asks for
// before any cold-kernel skip is built: how many rows an iteration still
// moves, and what a row-local skip of the settled ones would buy and
// cost. It is a program, not a guard — run it once and read its log:
//
//	go test -run '^$' -bench ProbeSettledRows -benchtime 1x ./internal/core/
//
// It builds the spine's seed-1 cold_check_tcp graph (an aged cluster of
// 24 000 MDT inodes, scanned and merged in process — the same graph the
// TCP path builds) and rank_rmat's R-MAT-16×8, then:
//
//   - runs the cold kernel with DefaultOptions (AlwaysRank: the graph is
//     paired) and counts, per iteration
//     and phase, the rows that move by more than the frontier bound
//     θ = ε·frontierSlack·(1−σ), and the phase-A sink mass;
//   - runs a prototype that skips every row whose last evaluation moved
//     it by at most θ, with a full sweep every R-th iteration, and stops
//     on Run's criterion over the rows it swept; it reports the kernel
//     time at two workers, the iteration it stopped at, and how far the
//     total ID and property mass drifted from N.
func BenchmarkProbeSettledRows(b *testing.B) {
	graphs := []struct {
		name string
		g    *graph.Bidirected
	}{
		{"cold_check_tcp seed 1", coldCheckGraph(b)},
		{"rmat16x8 seed 1", graph.NewBidirectedUntyped(1<<16, rmat.Generate(rmat.Graph500(16, 8, 1), 0), 0)},
	}
	opt := rankOptions() // the cold_check_tcp graph is paired
	opt.Workers = 2
	for b.Loop() {
		for _, tc := range graphs {
			b.Logf("%s: %d rows, %d edges", tc.name, tc.g.N(), tc.g.Fwd.NumEdges())
			b.Log(movedRowsTable(tc.g, opt))
			dense := medianOf(5, func() time.Duration {
				t0 := time.Now()
				Run(tc.g, opt)
				return time.Since(t0)
			})
			b.Logf("dense Run: %v (median of 5)", dense)
			for _, r := range []int{8, 4, 2} {
				var st settledStats
				d := medianOf(5, func() time.Duration {
					t0 := time.Now()
					st = settledRun(tc.g, opt, r)
					return time.Since(t0)
				})
				b.Logf("settled-rows skip, full every %d: %v, stopped at iteration %d (converged %v), %d row evaluations, ID mass %+.2f %%, property mass %+.2f %%",
					r, d, st.iters, st.converged, st.touched, 100*st.idDrift, 100*st.propDrift)
			}
		}
	}
}

// coldCheckGraph is the benchmark's cold_check_tcp graph for seed 1.
func coldCheckGraph(tb testing.TB) *graph.Bidirected {
	tb.Helper()
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 8, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := workload.Age(c, workload.AgeSpec{TargetMDTInodes: 24000, ChurnFraction: 0.15, Seed: 1}); err != nil {
		tb.Fatal(err)
	}
	var parts []*scanner.Partial
	for _, img := range append([]*ldiskfs.Image{c.MDT.Img}, ostImages(c)...) {
		p, err := scanner.ScanImage(img, 0)
		if err != nil {
			tb.Fatal(err)
		}
		parts = append(parts, p)
	}
	return agg.MergeWorkers(parts, 0).Build(0)
}

func ostImages(c *lustre.Cluster) []*ldiskfs.Image {
	var out []*ldiskfs.Image
	for _, ost := range c.OSTs {
		out = append(out, ost.Img)
	}
	return out
}

func medianOf(runs int, f func() time.Duration) time.Duration {
	ds := make([]time.Duration, runs)
	for i := range ds {
		runtime.GC()
		ds[i] = f()
	}
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	return ds[runs/2]
}

// movedRowsTable runs the cold kernel as Run does and tabulates, per
// iteration, the rows each phase moved by more than θ and the sink mass
// phase A redistributed, then counts the steps (iterations after the
// first) in which fewer than 1 % of the rows moved in either phase.
func movedRowsTable(b *graph.Bidirected, opt Options) string {
	n := b.N()
	blend := 1 - opt.Smoothing
	k := graphKernel(b, opt, &workspace{})
	defer k.stop()
	k.theta, k.moved = opt.Epsilon*frontierSlack*blend, make([]uint8, n)
	id, prop := seedRanks(n, opt, nil, nil)
	k.seed(id, prop)
	count := func() int {
		c := 0
		for v, m := range k.moved {
			c += int(m)
			k.moved[v] = 0
		}
		return c
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "θ = %.4g; iteration: rows moved in phase A / phase B, phase-A sink mass\n", k.theta)
	quiet, quietFrom, steps := 0, 0, 0
	for iter := 1; iter <= opt.MaxIterations; iter++ {
		sinkA := foldBlocks(k.partA)
		baseA, perSinkA := sinkShares(sinkA, n, opt.SinkPolicy)
		diff := k.phaseA(allRows(n), baseA, perSinkA) / blend
		movedA := count()
		baseB, perSinkB := sinkShares(foldBlocks(k.partB), n, opt.SinkPolicy)
		k.phaseB(allRows(n), baseB, perSinkB)
		movedB := count()
		fmt.Fprintf(&sb, "  %2d: %6d / %6d  %.4g\n", iter, movedA, movedB, sinkA)
		if iter > 1 {
			steps++
			if 100*max(movedA, movedB) < n {
				quiet++
				if quietFrom == 0 {
					quietFrom = iter
				}
			} else {
				quietFrom = 0
			}
		}
		if diff < opt.Epsilon {
			fmt.Fprintf(&sb, "converged at iteration %d; %d of %d steps moved < 1 %% of the rows, every one from iteration %d on",
				iter, quiet, steps, quietFrom)
			break
		}
	}
	return sb.String()
}

type settledStats struct {
	iters              int
	converged          bool
	touched            int64
	idDrift, propDrift float64
}

// settledRun is the prototype: Run's iteration, except that a row whose
// last evaluation moved it by at most θ is skipped until the next full
// sweep, which comes every r-th iteration. A list sweep leaves the sink
// partials of the blocks it rewrote stale; they are recomputed whole
// before the next fold, as RunIncremental does.
func settledRun(b *graph.Bidirected, opt Options, r int) settledStats {
	n := b.N()
	blend := 1 - opt.Smoothing
	k := graphKernel(b, opt, &workspace{})
	defer k.stop()
	k.theta, k.moved = opt.Epsilon*frontierSlack*blend, make([]uint8, n)
	id, prop := seedRanks(n, opt, nil, nil)
	k.seed(id, prop)
	var st settledStats
	nb := len(k.partA)
	staleA, staleB := &blkSet{in: make([]bool, nb)}, &blkSet{in: make([]bool, nb)}
	fold := func(part []float64, stale *blkSet) float64 {
		for _, blk := range stale.list {
			k.scale(int(blk))
		}
		stale.reset()
		return foldBlocks(part)
	}
	var activeA, activeB []uint32
	// next sweeps all rows on a full iteration and the rows still moving
	// otherwise; after a sweep, keep collects the rows it moved by more
	// than θ and marks the blocks a list sweep rewrote.
	next := func(full bool, active []uint32) rowSet {
		if full {
			st.touched += int64(n)
			return allRows(n)
		}
		st.touched += int64(len(active))
		return listRows(active)
	}
	keep := func(rows rowSet, active []uint32, stale *blkSet) []uint32 {
		active = active[:0]
		if rows.dense {
			stale.reset() // a dense sweep emitted the other phase's partials fresh
			for v, m := range k.moved {
				if m != 0 {
					active = append(active, uint32(v))
					k.moved[v] = 0
				}
			}
			return active
		}
		for _, v := range rows.list {
			stale.mark(int(v) / sinkBlock)
			if k.moved[v] != 0 {
				active = append(active, v)
				k.moved[v] = 0
			}
		}
		return active
	}
	for iter := 0; iter < opt.MaxIterations; iter++ {
		full := iter%r == 0
		baseA, perSinkA := sinkShares(fold(k.partA, staleA), n, opt.SinkPolicy)
		rowsA := next(full, activeA)
		diff := k.phaseA(rowsA, baseA, perSinkA) / blend
		activeA = keep(rowsA, activeA, staleB)
		baseB, perSinkB := sinkShares(fold(k.partB, staleB), n, opt.SinkPolicy)
		rowsB := next(full, activeB)
		k.phaseB(rowsB, baseB, perSinkB)
		activeB = keep(rowsB, activeB, staleA)
		st.iters = iter + 1
		if diff < opt.Epsilon {
			st.converged = true
			break
		}
	}
	drift := func(xs []float64) float64 {
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return sum/float64(n) - 1
	}
	st.idDrift, st.propDrift = drift(id), drift(prop)
	return st
}
