// Command frgraph is the standalone graph workbench behind the paper's
// §V-C1 algorithm benchmarks: it generates benchmark graphs, converts
// edge-list formats, and runs the FaultyRank iteration on an edge-list
// file, reporting build time, iteration time, convergence trace and
// memory — the Table IV/V measurement path without any file system.
//
//	frgraph gen -kind rmat -scale 20 -degree 8 -o rmat20.bin
//	frgraph gen -kind amazon -n 403393 -o amazon.txt
//	frgraph convert -i graph.txt -o graph.bin
//	frgraph rank -i rmat20.bin -trace
//	frgraph ingest -dir cluster/ -workers 8 -tcp
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"faultyrank/internal/checker"
	"faultyrank/internal/core"
	"faultyrank/internal/edgelist"
	"faultyrank/internal/graph"
	"faultyrank/internal/imgdir"
	"faultyrank/internal/rmat"
	"faultyrank/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("frgraph: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		cmdGen(os.Args[2:])
	case "convert":
		cmdConvert(os.Args[2:])
	case "rank":
		cmdRank(os.Args[2:])
	case "stats":
		cmdStats(os.Args[2:])
	case "ingest":
		cmdIngest(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: frgraph gen|convert|rank|stats|ingest [flags]")
	os.Exit(2)
}

// cmdIngest times the streaming ingestion pipeline on a cluster image
// directory: chunked parallel scan (plus transfer, with -tcp), merge
// and CSR build — the per-stage wall times behind Table VI's
// T_scan and T_graph columns.
func cmdIngest(args []string) {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	dir := fs.String("dir", "cluster", "cluster image directory")
	workers := fs.Int("workers", 0, "parallelism (0 = GOMAXPROCS)")
	chunk := fs.Int("chunk", 0, "entries per streamed chunk (0 = default)")
	useTCP := fs.Bool("tcp", false, "stream chunks over localhost TCP")
	fs.Parse(args)

	images, err := imgdir.Load(*dir)
	if err != nil {
		log.Fatal(err)
	}
	opt := checker.DefaultOptions()
	opt.Workers = *workers
	opt.ChunkSize = *chunk
	opt.UseTCP = *useTCP
	res, err := checker.Run(images, opt)
	if err != nil {
		log.Fatal(err)
	}
	st := res.Stats
	fmt.Printf("unified graph: %d vertices, %d edges (%d paired / %d unpaired)\n",
		st.Vertices, st.Edges, st.PairedEdges, st.UnpairedEdges)
	fmt.Printf("scan+stream %.3fs | merge+build %.3fs | rank %.3fs | total %.3fs\n",
		res.TScan.Seconds(), res.TGraph.Seconds(), res.TRank.Seconds(), res.Total().Seconds())
}

// cmdStats prints structural statistics of an edge list: degree
// percentiles, reciprocity (the paired-edge fraction FaultyRank's
// credibility flow rides on) and sink/source counts.
func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("i", "", "input edge list")
	fs.Parse(args)
	if *in == "" {
		log.Fatal("stats needs -i")
	}
	edges, n, err := readEdges(*in)
	if err != nil {
		log.Fatal(err)
	}
	b := graph.NewBidirectedUntyped(n, edges, 0)
	st := b.Stats(0)
	fmt.Printf("vertices %d, edges %d\n", st.Vertices, st.Edges)
	fmt.Printf("paired %d (%.1f%%), unpaired %d\n", st.PairedEdges,
		100*float64(st.PairedEdges)/float64(max64(st.Edges, 1)), st.UnpairedEdges)
	fmt.Printf("sinks %d, sources %d\n", st.Sinks, st.Sources)

	// out-degree percentiles via counting sort
	maxDeg := 0
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, b.OutDegree(uint32(v)))
	}
	hist := make([]int, maxDeg+1)
	for v := 0; v < n; v++ {
		hist[b.OutDegree(uint32(v))]++
	}
	fmt.Printf("out-degree: max %d", maxDeg)
	for _, p := range []float64{0.5, 0.9, 0.99} {
		target := int(float64(n) * p)
		cum := 0
		for d, c := range hist {
			cum += c
			if cum >= target {
				fmt.Printf(", p%d %d", int(p*100), d)
				break
			}
		}
	}
	fmt.Println()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// writeEdges picks the format from the file suffix (.bin = binary).
func writeEdges(path string, edges []graph.Edge) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		return edgelist.WriteBinary(f, edges)
	}
	return edgelist.WriteText(f, edges)
}

func readEdges(path string) ([]graph.Edge, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		return edgelist.ReadBinary(f)
	}
	return edgelist.ReadText(f)
}

func cmdGen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "rmat", "rmat|amazon|roadnet")
	scale := fs.Int("scale", 20, "rmat: log2 vertex count")
	degree := fs.Int("degree", 8, "rmat: average degree / amazon: degree")
	n := fs.Int("n", 403393, "amazon: vertex count")
	w := fs.Int("w", 1590, "roadnet: grid width")
	h := fs.Int("h", 1240, "roadnet: grid height")
	seed := fs.Int64("seed", 42, "generator seed")
	out := fs.String("o", "graph.bin", "output file (.bin = binary, else text)")
	workers := fs.Int("workers", 0, "parallelism")
	fs.Parse(args)

	var edges []graph.Edge
	t0 := time.Now()
	switch *kind {
	case "rmat":
		edges = rmat.Generate(rmat.Graph500(*scale, *degree, *seed), *workers)
	case "amazon":
		edges = workload.AmazonLike(*n, *degree, *seed)
	case "roadnet":
		edges = workload.RoadNetLike(*w, *h, *seed)
	default:
		log.Fatalf("unknown kind %q", *kind)
	}
	fmt.Printf("generated %d edges in %v\n", len(edges), time.Since(t0).Round(time.Millisecond))
	if err := writeEdges(*out, edges); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

func cmdConvert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("i", "", "input edge list")
	out := fs.String("o", "", "output edge list")
	fs.Parse(args)
	if *in == "" || *out == "" {
		log.Fatal("convert needs -i and -o")
	}
	edges, _, err := readEdges(*in)
	if err != nil {
		log.Fatal(err)
	}
	if err := writeEdges(*out, edges); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converted %d edges: %s -> %s\n", len(edges), *in, *out)
}

func cmdRank(args []string) {
	fs := flag.NewFlagSet("rank", flag.ExitOnError)
	in := fs.String("i", "", "input edge list")
	workers := fs.Int("workers", 0, "parallelism")
	epsilon := fs.Float64("epsilon", 0.1, "convergence epsilon")
	trace := fs.Bool("trace", false, "print the per-iteration convergence trace")
	fs.Parse(args)
	if *in == "" {
		log.Fatal("rank needs -i")
	}
	t0 := time.Now()
	edges, n, err := readEdges(*in)
	if err != nil {
		log.Fatal(err)
	}
	load := time.Since(t0)

	t1 := time.Now()
	b := graph.NewBidirectedUntyped(n, edges, *workers)
	build := time.Since(t1)

	opt := core.DefaultOptions()
	opt.Workers = *workers
	opt.Epsilon = *epsilon
	opt.AlwaysRank = true // time the kernel even on a fully paired graph
	t2 := time.Now()
	res := core.Run(b, opt)
	iterate := time.Since(t2)

	st := b.Stats(*workers)
	fmt.Printf("graph: %d vertices, %d edges (%d paired / %d unpaired)\n",
		st.Vertices, st.Edges, st.PairedEdges, st.UnpairedEdges)
	fmt.Printf("load %.3fs | build %.3fs | iterate %.3fs (%d iterations, converged=%v)\n",
		load.Seconds(), build.Seconds(), iterate.Seconds(), res.Iterations, res.Converged)
	fmt.Printf("memory: %.1f MiB graph + %.1f MiB ranks\n",
		float64(b.MemoryBytes())/(1<<20), float64(4*8*n)/(1<<20))
	if *trace {
		for i, d := range res.Diffs {
			fmt.Printf("  iter %2d: max|Δid| = %.6f\n", i+1, d)
		}
	}
}
