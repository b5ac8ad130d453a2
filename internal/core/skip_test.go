package core

import (
	"math/rand"
	"testing"

	"faultyrank/internal/graph"
)

// TestRunSkipsPairedGraph: on a graph whose every relation is paired, Run
// and RunIncremental do not sweep — the result is Skipped and Converged,
// with no iterations and rank vectors holding the uniform cold seed —
// whatever the warm seeds, and a result handed back keeps its storage.
// One unpaired edge, or AlwaysRank, brings the iteration back.
func TestRunSkipsPairedGraph(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	b := symmetricGraph(r, 300, 900)
	if b.UnpairedEdges() != 0 {
		t.Fatalf("fixture has %d unpaired edges", b.UnpairedEdges())
	}
	opt := DefaultOptions()
	if !opt.Skips(b) {
		t.Fatal("Skips is false on a paired graph")
	}
	assertSkipped := func(what string, res *Result) {
		t.Helper()
		if !res.Skipped || !res.Converged || res.Iterations != 0 || len(res.IDRank) != b.N() ||
			len(res.PropRank) != b.N() || len(res.Diffs) != 0 || res.Frontier != nil {
			t.Fatalf("%s: skipped %v converged %v, %d iterations, %d/%d ranks, %d diffs, frontier %v; want a skipped result",
				what, res.Skipped, res.Converged, res.Iterations, len(res.IDRank), len(res.PropRank), len(res.Diffs), res.Frontier)
		}
		for v := range res.IDRank {
			if res.IDRank[v] != 1 || res.PropRank[v] != 1 {
				t.Fatalf("%s: vertex %d holds %g/%g, want the cold seed 1/1", what, v, res.IDRank[v], res.PropRank[v])
			}
		}
	}
	assertSkipped("Run", Run(b, opt))

	ranked := Run(b, rankOptions())
	mustHaveRanked(t, ranked)
	warm := opt
	warm.InitialID, warm.InitialProp = ranked.IDRank, ranked.PropRank
	assertSkipped("RunIncremental", RunIncremental(b, warm, []uint32{1, 2, 3}))

	// Storage handed back survives the skip, and the next run that ranks
	// writes into it.
	reuse := Run(b, rankOptions())
	id := &reuse.IDRank[0]
	opt.Reuse = reuse
	if got := Run(b, opt); got != reuse || cap(got.IDRank) == 0 || &got.IDRank[:1][0] != id {
		t.Fatal("a skipped run handed a result back dropped its storage")
	}
	assertSkipped("Run with Reuse", reuse)
	again := rankOptions()
	again.Reuse = reuse
	got := Run(b, again)
	if got != reuse || &got.IDRank[0] != id {
		t.Fatal("a run after a skip did not rank into the kept storage")
	}
	assertSameResult(t, got, ranked)

	// One unpaired edge is something to judge.
	var edges []graph.Edge
	for v := 0; v < b.N(); v++ {
		for _, u := range b.Fwd.Neighbors(uint32(v)) {
			edges = append(edges, graph.Edge{Src: uint32(v), Dst: u, Kind: graph.KindDirent})
		}
	}
	edges = append(edges, graph.Edge{Src: 0, Dst: uint32(b.N() - 1), Kind: graph.KindLOVEA})
	if b.Fwd.HasEdge(uint32(b.N()-1), 0) {
		t.Fatal("fixture: the added edge is paired")
	}
	faulty := graph.NewBidirected(b.N(), edges, 0)
	if faulty.UnpairedEdges() != 1 || DefaultOptions().Skips(faulty) {
		t.Fatalf("one unpaired edge: UnpairedEdges %d, Skips %v", faulty.UnpairedEdges(), DefaultOptions().Skips(faulty))
	}
	mustHaveRanked(t, Run(faulty, DefaultOptions()))
}

// TestRunSplitJudgesEachPlane: a relation answered only across planes —
// a DIRENT whose point-back is a filter-fid — is paired in the merged
// graph, which Run skips, and unpaired in both planes, which RunSplit
// ranks each on its own pairing.
func TestRunSplitJudgesEachPlane(t *testing.T) {
	n, edges := twoPlaneEdges()
	edges = append(edges,
		graph.Edge{Src: 2, Dst: 4, Kind: graph.KindDirent},
		graph.Edge{Src: 4, Dst: 2, Kind: graph.KindFilterFID})
	opt := DefaultOptions()
	if merged := Run(graph.NewBidirected(n, edges, 0), opt); !merged.Skipped {
		t.Fatalf("merged graph ranked: %d iterations", merged.Iterations)
	}
	sr := RunSplit(n, edges, opt)
	if len(sr.Classes) != 2 {
		t.Fatalf("%d planes, want 2", len(sr.Classes))
	}
	for _, cr := range sr.Classes {
		if cr.Graph.UnpairedEdges() != 1 {
			t.Fatalf("%v plane: %d unpaired edges, want 1", cr.Class, cr.Graph.UnpairedEdges())
		}
		mustHaveRanked(t, cr.Result)
	}
}
