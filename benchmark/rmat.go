package main

import (
	"fmt"

	"faultyrank/internal/core"
	"faultyrank/internal/graph"
	"faultyrank/internal/rmat"
)

// rankRMAT is rank_rmat: CSR build plus FaultyRank iteration on a
// Graph500 R-MAT graph — Table IV/V's measurement. It bypasses scanner,
// wire, agg, checker, repair and online entirely, so a kernel or
// CSR-build change shows here and on no layer it does not touch.
// core.Detect is left out of the operation: on R-MAT nearly every edge
// is unpaired, so detection is costly and means nothing.
type rankRMAT struct {
	n     int
	edges []graph.Edge
	ref   digest // Workers:1 run of the same code, computed in set-up
	sz    sizes
}

func (w *rankRMAT) setup(seed int64, sz sizes) error {
	p := rmat.Graph500(sz.RMATScale, sz.RMATEdgeFactor, seed)
	w.sz = sz
	w.n = p.NumVertices()
	w.edges = rmat.Generate(p, 0)
	opt := core.DefaultOptions()
	opt.Workers = 1
	r := core.Run(graph.NewBidirectedUntyped(w.n, w.edges, 1), opt)
	if !r.Converged {
		return fmt.Errorf("reference run did not converge in %d iterations", r.Iterations)
	}
	w.ref = rankDigest(w.n, int64(len(w.edges)), r)
	return nil
}

func (w *rankRMAT) inputs() map[string]int64 {
	return map[string]int64{
		"rmat_scale":       int64(w.sz.RMATScale),
		"rmat_edge_factor": int64(w.sz.RMATEdgeFactor),
		"vertices":         int64(w.n),
		"edges":            int64(len(w.edges)),
	}
}

// rmatOracle: converged, with the reference's iteration count and rank
// bits. Nothing is hard-coded, so a legitimate kernel change
// re-baselines itself while a worker-count-dependent one fails.
func rmatOracle(ref digest, r *core.Result) error {
	if !r.Converged {
		return fmt.Errorf("not converged after %d iterations", r.Iterations)
	}
	return sameDigest("rank", rankDigest(ref.N, ref.E, r), ref)
}

func (w *rankRMAT) op() (sample, error) {
	s := sample{}
	var r *core.Result
	timed(s, func() {
		r = core.Run(graph.NewBidirectedUntyped(w.n, w.edges, 0), core.DefaultOptions())
	})
	return s, rmatOracle(w.ref, r)
}

func (w *rankRMAT) traced(tr *tracer) (sample, error) {
	s := sample{}
	tr.nextOp()
	root := tr.begin("benchmark.staged_op", -1)
	var built *graph.Bidirected
	var r *core.Result
	d, alloc := tr.stage(root, "graph.build", func() { built = graph.NewBidirectedUntyped(w.n, w.edges, 0) })
	s["graph.build_s"], s["graph.alloc_mib"] = d, alloc
	s["graph.ns_per_edge"] = d * 1e9 / float64(len(w.edges))
	s["graph.bytes_computed"] = float64(built.MemoryBytes())
	d, alloc = tr.stage(root, "core.iterate", func() { r = core.Run(built, core.DefaultOptions()) })
	s["core.iterate_s"], s["core.alloc_mib"] = d, alloc
	s["core.iterations"] = float64(r.Iterations)
	s["core.ns_per_edge_iter"] = d * 1e9 / (float64(len(w.edges)) * float64(max(r.Iterations, 1)))
	s["staged_s"] = tr.end(root)
	s["graph.unpaired_edges"] = float64(built.Stats(0).UnpairedEdges)
	if err := rmatOracle(w.ref, r); err != nil {
		return s, fmt.Errorf("staged: %w", err)
	}
	serialProbe(tr, s, built, s["core.iterate_s"])

	s["traced_result_s"] = tr.pipelineOp(func() {
		r = core.Run(graph.NewBidirectedUntyped(w.n, w.edges, 0), core.DefaultOptions())
	})
	return s, rmatOracle(w.ref, r)
}

func (w *rankRMAT) finish(*tracer) (sample, error) { return sample{}, nil }
