package core_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"faultyrank/internal/checker"
	"faultyrank/internal/core"
	"faultyrank/internal/graph"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/rmat"
)

// rankBits hashes the exact bits of a result's rank vectors: ID ranks,
// then property ranks, each entry's math.Float64bits little-endian.
func rankBits(r *core.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, vec := range [][]float64{r.IDRank, r.PropRank} {
		for _, x := range vec {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// faultedFig7Graph is the unified graph of the Fig. 7 campaign cluster
// (three directories of four 3-stripe files on four OSTs) with one
// dangling object id planted, as the checker builds it.
func faultedFig7Graph(t *testing.T) *graph.Bidirected {
	t.Helper()
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 4, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		dir := fmt.Sprintf("/proj%d", d)
		if err := c.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 4; f++ {
			if _, err := c.Create(fmt.Sprintf("%s/file%d", dir, f), 3*64<<10); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := inject.Inject(c, inject.DanglingObjectID, "/proj1/file2"); err != nil {
		t.Fatal(err)
	}
	res, err := checker.Run(checker.ClusterImages(c), checker.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.UnpairedEdges() == 0 {
		t.Fatal("faulted Fig. 7 cluster has no unpaired edge")
	}
	return res.Graph
}

// TestSingleKernelRankBits pins the exact rank bits of the single kernel
// at Workers 1, 2 and 8 on four fixtures: the paper's Table II example,
// a faulted Fig. 7 cluster, a small R-MAT and one warm RunIncremental
// round after an edge delta on that R-MAT. The hashes are fixed: any
// change to the kernel's float operation order, block size or sink fold
// moves them.
func TestSingleKernelRankBits(t *testing.T) {
	opt := core.DefaultOptions()
	opt.AlwaysRank = true

	table2 := graph.NewBidirected(4, []graph.Edge{
		{Src: 0, Dst: 1, Kind: graph.KindDirent},
		{Src: 0, Dst: 2, Kind: graph.KindDirent},
		{Src: 1, Dst: 0, Kind: graph.KindLinkEA},
		{Src: 3, Dst: 1, Kind: graph.KindFilterFID},
	}, 0)
	fig7 := faultedFig7Graph(t)

	p := rmat.Graph500(13, 8, 7)
	edges := rmat.Generate(p, 0)
	small := graph.NewBidirectedUntyped(p.NumVertices(), edges, 0)

	// The warm round: rank the R-MAT cold on one worker, drop every
	// 97th edge, and rank the rest from there seeded at the dropped
	// edges' endpoints.
	cold := opt
	cold.Workers = 1
	prev := core.Run(small, cold)
	var kept []graph.Edge
	var dirty []uint32
	for i, e := range edges {
		if i%97 == 0 {
			dirty = append(dirty, e.Src, e.Dst)
			continue
		}
		kept = append(kept, e)
	}
	delta := graph.NewBidirectedUntyped(p.NumVertices(), kept, 0)

	fixtures := []struct {
		name string
		want uint64
		run  func(core.Options) *core.Result
	}{
		{"table2", 0x672e8aa12b4b0b1c, func(o core.Options) *core.Result { return core.Run(table2, o) }},
		{"fig7", 0x3bc6222d3e3e530a, func(o core.Options) *core.Result { return core.Run(fig7, o) }},
		{"rmat", 0xf6c3cde76ecb3930, func(o core.Options) *core.Result { return core.Run(small, o) }},
		{"warm", 0xfabd8860e8d39765, func(o core.Options) *core.Result {
			o.InitialID, o.InitialProp = prev.IDRank, prev.PropRank
			return core.RunIncremental(delta, o, dirty)
		}},
	}
	for _, f := range fixtures {
		for _, workers := range []int{1, 2, 8} {
			o := opt
			o.Workers = workers
			r := f.run(o)
			if r.Skipped || r.Iterations == 0 {
				t.Fatalf("%s/workers=%d: did not iterate", f.name, workers)
			}
			if f.name == "warm" && r.Frontier == nil {
				t.Fatalf("warm/workers=%d: ran full sweeps, not the frontier kernel", workers)
			}
			if got := rankBits(r); got != f.want {
				t.Errorf("%s/workers=%d: rank bits %#016x, want %#016x (iterations %d)", f.name, workers, got, f.want, r.Iterations)
			}
		}
	}
}
