// Largegraph: run the FaultyRank algorithm on a pure benchmark graph
// (Graph500 R-MAT), the paper's Table IV scalability experiment. This
// demonstrates the graph/core API without any file system underneath:
// generate, build the bidirected CSR, iterate to convergence, and report
// throughput and memory.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"faultyrank/internal/core"
	"faultyrank/internal/graph"
	"faultyrank/internal/rmat"
)

func main() {
	log.SetFlags(0)
	scale := flag.Int("scale", 18, "R-MAT scale (2^scale vertices)")
	degree := flag.Int("degree", 8, "average degree")
	workers := flag.Int("workers", 0, "parallelism (0 = GOMAXPROCS)")
	flag.Parse()

	params := rmat.Graph500(*scale, *degree, 42)
	fmt.Printf("generating RMAT-%d: %d vertices, %d edges...\n",
		*scale, params.NumVertices(), params.NumEdges())
	t0 := time.Now()
	edges := rmat.Generate(params, *workers)
	fmt.Printf("  generated in %v\n", time.Since(t0).Round(time.Millisecond))

	t1 := time.Now()
	b := graph.NewBidirectedUntyped(params.NumVertices(), edges, *workers)
	build := time.Since(t1)
	stats := b.Stats(*workers)
	fmt.Printf("  CSR built in %v: %d paired / %d unpaired edges, %d sinks\n",
		build.Round(time.Millisecond), stats.PairedEdges, stats.UnpairedEdges, stats.Sinks)

	opt := core.DefaultOptions()
	opt.Workers = *workers
	opt.AlwaysRank = true // the point is the kernel's throughput, paired or not
	t2 := time.Now()
	res := core.Run(b, opt)
	iter := time.Since(t2)
	fmt.Printf("  FaultyRank converged=%v in %d iterations, %v (%.1f M edges/s/iter)\n",
		res.Converged, res.Iterations, iter.Round(time.Millisecond),
		float64(stats.Edges)*2*float64(res.Iterations)/iter.Seconds()/1e6)
	fmt.Printf("  memory: %.1f MiB graph + %.1f MiB ranks\n",
		float64(b.MemoryBytes())/(1<<20), float64(4*8*params.NumVertices())/(1<<20))

	// On a random directed graph most edges are unpaired, so the rank
	// mass concentrates on reciprocated structure. Show the extremes.
	minID, maxID := 0, 0
	for v := 1; v < len(res.IDRank); v++ {
		if res.IDRank[v] < res.IDRank[minID] {
			minID = v
		}
		if res.IDRank[v] > res.IDRank[maxID] {
			maxID = v
		}
	}
	fmt.Printf("  id-rank range: min %.4f (v%d) .. max %.2f (v%d)\n",
		res.IDRank[minID], minID, res.IDRank[maxID], maxID)
}
