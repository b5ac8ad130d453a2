package bench

import (
	"fmt"
	"runtime"
	"time"

	"faultyrank/internal/core"
	"faultyrank/internal/graph"
	"faultyrank/internal/rmat"
	"faultyrank/internal/workload"
)

// Dataset is one Table III input graph.
type Dataset struct {
	Name     string
	Vertices int
	Edges    []graph.Edge
}

// datasetSpecs returns the Table III datasets at the requested scale.
// At ScalePaper the RMAT scales match the paper (23-26); Amazon and
// Road-Net stand-ins match the published vertex/edge counts.
func datasetSpecs(scale Scale) []func() Dataset {
	type spec struct {
		amazonN, roadW, roadH int
		rmatScales            []int
	}
	s := map[Scale]spec{
		ScaleSmoke:   {amazonN: 8000, roadW: 120, roadH: 100, rmatScales: []int{13, 14}},
		ScaleDefault: {amazonN: 100000, roadW: 700, roadH: 700, rmatScales: []int{16, 17, 18, 19}},
		ScalePaper:   {amazonN: 403393, roadW: 1590, roadH: 1240, rmatScales: []int{23, 24, 25, 26}},
	}[scale]
	var out []func() Dataset
	out = append(out, func() Dataset {
		return Dataset{
			Name:     "Amazon-like",
			Vertices: s.amazonN,
			Edges:    workload.AmazonLike(s.amazonN, 12, 1001),
		}
	})
	out = append(out, func() Dataset {
		return Dataset{
			Name:     "Road-Net-like",
			Vertices: s.roadW * s.roadH,
			Edges:    workload.RoadNetLike(s.roadW, s.roadH, 1002),
		}
	})
	for _, sc := range s.rmatScales {
		sc := sc
		out = append(out, func() Dataset {
			p := rmat.Graph500(sc, 8, 1003)
			return Dataset{
				Name:     fmt.Sprintf("RMAT-%d", sc),
				Vertices: p.NumVertices(),
				Edges:    rmat.Generate(p, 0),
			}
		})
	}
	return out
}

// Table3 lists the benchmark graphs and their sizes (paper Table III).
func Table3(scale Scale) *Table {
	t := &Table{
		Title:   "Table III — graph inputs and their key properties",
		Columns: []string{"dataset", "vertices", "edges"},
	}
	for _, mk := range datasetSpecs(scale) {
		d := mk()
		t.Rows = append(t.Rows, []string{
			d.Name, fmt.Sprintf("%d", d.Vertices), fmt.Sprintf("%d", len(d.Edges)),
		})
	}
	if scale != ScalePaper {
		t.Notes = append(t.Notes, "scaled-down sizes; run with -scale paper for the paper's RMAT-23..26")
	}
	return t
}

// Table4Row is one measured dataset of Table IV.
type Table4Row struct {
	Name       string
	Vertices   int
	Edges      int64
	BuildTime  time.Duration
	IterTime   time.Duration
	Iterations int
	// AllocBytes is the heap the build and the rank run allocated between
	// them (runtime.MemStats.TotalAlloc delta): the CSR pair, the kernel's
	// n-vectors and every transient the two stages make.
	AllocBytes int64
}

// totalAlloc reads the cumulative heap allocation of the process.
func totalAlloc() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc)
}

// MeasureDataset builds the bidirected graph and runs FaultyRank once,
// reporting the paper's Table IV columns. The paper times the iteration
// on every dataset, so the run ranks even a graph whose relations are all
// paired (core.Options.AlwaysRank), which a default check would skip.
func MeasureDataset(name string, n int, edges []graph.Edge, workers int) Table4Row {
	alloc0 := totalAlloc()
	t0 := time.Now()
	b := graph.NewBidirectedUntyped(n, edges, workers)
	build := time.Since(t0)

	opt := core.DefaultOptions()
	opt.Workers = workers
	opt.AlwaysRank = true
	t1 := time.Now()
	res := core.Run(b, opt)
	iter := time.Since(t1)

	return Table4Row{
		Name: name, Vertices: n, Edges: b.Fwd.NumEdges(),
		BuildTime: build, IterTime: iter, Iterations: res.Iterations,
		AllocBytes: totalAlloc() - alloc0,
	}
}

// Table4 measures FaultyRank performance and memory per dataset (paper
// Table IV).
func Table4(scale Scale, workers int) *Table {
	t := &Table{
		Title: "Table IV — FaultyRank performance and memory footprint",
		Columns: []string{
			"dataset", "vertices", "edges", "build (s)", "iterations (s)", "iters", "allocated (MiB)",
		},
	}
	for _, mk := range datasetSpecs(scale) {
		d := mk()
		r := MeasureDataset(d.Name, d.Vertices, d.Edges, workers)
		t.Rows = append(t.Rows, []string{
			r.Name, fmt.Sprintf("%d", r.Vertices), fmt.Sprintf("%d", r.Edges),
			fmt.Sprintf("%.3f", r.BuildTime.Seconds()),
			fmt.Sprintf("%.3f", r.IterTime.Seconds()),
			fmt.Sprintf("%d", r.Iterations),
			mib(r.AllocBytes),
		})
	}
	t.Notes = append(t.Notes,
		"paper (RMAT-26, deg 8): build 315s, iterate 275s, 26.5 GB on a 2019 Xeon — compare scaling shape, not absolutes",
		"allocated = heap allocated by the build and the rank run (TotalAlloc delta), transients included: an upper bound on what the two stages hold")
	return t
}

// Table5 fixes the RMAT scale and varies the average degree (paper
// Table V: RMAT-26, degrees 4-32).
func Table5(scale Scale, workers int) *Table {
	rmatScale := map[Scale]int{ScaleSmoke: 13, ScaleDefault: 19, ScalePaper: 26}[scale]
	t := &Table{
		Title: fmt.Sprintf("Table V — RMAT-%d with varying average degree", rmatScale),
		Columns: []string{
			"avg degree", "edges", "build (s)", "iterations (s)", "iters", "allocated (MiB)",
		},
	}
	for _, deg := range []int{4, 8, 16, 32} {
		p := rmat.Graph500(rmatScale, deg, 1003)
		edges := rmat.Generate(p, workers)
		r := MeasureDataset(fmt.Sprintf("deg%d", deg), p.NumVertices(), edges, workers)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", deg), fmt.Sprintf("%d", r.Edges),
			fmt.Sprintf("%.3f", r.BuildTime.Seconds()),
			fmt.Sprintf("%.3f", r.IterTime.Seconds()),
			fmt.Sprintf("%d", r.Iterations),
			mib(r.AllocBytes),
		})
	}
	t.Notes = append(t.Notes,
		"paper (RMAT-26): time and memory grow near-linearly in degree; check the same slope here")
	return t
}

// Table2 reproduces the worked example (paper Table II / Fig. 3).
func Table2() *Table {
	const a, b, c, d = 0, 1, 2, 3
	edges := []graph.Edge{
		{Src: a, Dst: b, Kind: graph.KindDirent},
		{Src: a, Dst: c, Kind: graph.KindDirent},
		{Src: b, Dst: a, Kind: graph.KindLinkEA},
		{Src: d, Dst: b, Kind: graph.KindFilterFID},
	}
	bd := graph.NewBidirected(4, edges, 0)
	opt := core.DefaultOptions()
	res := core.Run(bd, opt)
	id, prop := res.NormalizedID(), res.NormalizedProp()
	paperID := []string{"0.35", "0.39", "0.20", "0.05"}
	paperProp := []string{"0.39", "0.35", "0.05", "0.20"}
	t := &Table{
		Title:   "Table II — ID and Property ranks of the Fig. 3 example graph",
		Columns: []string{"object", "id_rank", "paper", "prop_rank", "paper"},
	}
	names := []string{"a", "b", "c", "d"}
	for v := 0; v < 4; v++ {
		t.Rows = append(t.Rows, []string{
			names[v],
			fmt.Sprintf("%.2f", id[v]), paperID[v],
			fmt.Sprintf("%.2f", prop[v]), paperProp[v],
		})
	}
	t.Notes = append(t.Notes,
		"the faulty fields (c.prop, d.id) collapse to the vector minima exactly as in the paper;",
		"absolute values differ slightly: the paper's printed numbers imply an unweighted phase-B distribution (see EXPERIMENTS.md)")
	return t
}
