package core

import "faultyrank/internal/graph"

// Result holds the converged credibility scores of a FaultyRank run.
// IDRank and PropRank are on the paper's scale: every vertex starts at
// 1.0 and total mass N is conserved, so a "healthy" score hovers near
// 1.0 and a fault collapses toward 0.
type Result struct {
	IDRank   []float64
	PropRank []float64

	Iterations int
	Converged  bool
	// Skipped reports that the run had nothing to judge — the graph has
	// no unpaired edge and Options.AlwaysRank was off — so it did not
	// sweep: Iterations is 0, IDRank and PropRank hold the uniform cold
	// seed (every entry 1.0, whatever Options.InitialID/InitialProp say),
	// and Converged is true, as for an empty graph: the result is final,
	// since no vertex is in S_chk for a rank to be read for. A consumer
	// that keeps ranks to seed a later run (online warm starts) must test
	// Skipped first: the seed is no fixed point.
	Skipped bool
	// Diffs records the max-abs ID-rank change after each iteration
	// (the convergence trace; useful for the ablation benches).
	Diffs []float64
	// Trace is the detailed per-iteration record — populated only when
	// Options.ConvergenceTrace is set, and capped at DefaultTraceCap
	// entries. Values are worker-count insensitive up to float summation
	// order, like the ranks themselves.
	Trace []IterStats
	// Frontier records what the incremental kernel touched; nil for full
	// Run sweeps (including RunIncremental calls that delegated to Run).
	Frontier *FrontierStats

	// work is the kernel's working storage, kept for the next run handed
	// this result back (Options.Reuse).
	work workspace
}

// recycle returns the result a run writes into: Options.Reuse emptied of
// its numbers but not of its storage, or a new result.
func (o Options) recycle() *Result {
	r := o.Reuse
	if r == nil {
		return &Result{}
	}
	*r = Result{
		IDRank: r.IDRank, PropRank: r.PropRank,
		Diffs: r.Diffs[:0], Trace: r.Trace[:0],
		work: r.work,
	}
	return r
}

// IterStats is one iteration's convergence record.
type IterStats struct {
	// MaxDelta is the max-abs ID-rank change this iteration, on the
	// unsmoothed scale Epsilon is compared against (same as Diffs).
	MaxDelta float64 `json:"max_delta"`
	// SinkMassID is the dangling mass redistributed in phase A, the
	// sweep that produces the ID ranks.
	SinkMassID float64 `json:"sink_mass_id"`
	// SinkMassProp is the dangling mass redistributed in phase B, the
	// sweep that produces the property ranks.
	SinkMassProp float64 `json:"sink_mass_prop"`
}

// NormalizedID returns IDRank divided by N, the sum-to-one presentation
// used by Table II of the paper.
func (r *Result) NormalizedID() []float64 { return normalized(r.IDRank) }

// NormalizedProp returns PropRank divided by N (see NormalizedID).
func (r *Result) NormalizedProp() []float64 { return normalized(r.PropRank) }

func normalized(xs []float64) []float64 {
	n := float64(len(xs))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / n
	}
	return out
}

// Run executes the FaultyRank iterative algorithm (paper Alg. 1) on a
// bidirected metadata graph.
//
// Each iteration has two phases:
//
//	Phase A (ID ranks, over G):   id'[u]   = Σ_{v→u∈G} prop[v]/outdeg(v)
//	Phase B (Prop ranks, over Gᵣ): prop'[u] = Σ_{u→v∈G} id'[v]·w(u→v)/W(v)
//
// where w is 1 for paired edges and Options.UnpairedWeight for unpaired
// ones, and W(v) is the total weight of v's reversed-graph out-edges
// (§III-D's weighted distribution). Both phases are the kernel's
// pull-style gathers (kernel.go), swept densely over the whole graph —
// race-free and deterministic under parallelism. Each sweep also emits
// the next phase's sink mass as canonical block partials, which are
// folded here and redistributed according to Options.SinkPolicy.
//
// A non-empty graph without an unpaired edge is not iterated
// (Options.Skips): the result comes back Skipped, holding the cold seed.
// An empty graph is converged as it stands.
func Run(b *graph.Bidirected, opt Options) *Result {
	n := b.N()
	res := opt.recycle()
	if n == 0 || opt.Skips(b) {
		// Options{} seeds cold: a skipped result does not depend on the
		// warm seeds it was offered.
		res.IDRank, res.PropRank = seedRanks(n, Options{}, res.IDRank, res.PropRank)
		res.Converged, res.Skipped = true, n > 0
		return res
	}
	res.IDRank, res.PropRank = seedRanks(n, opt, res.IDRank, res.PropRank)
	k := graphKernel(b, opt, &res.work)
	defer k.stop()
	k.seed(res.IDRank, res.PropRank)
	rows := allRows(n)

	for iter := 0; iter < opt.MaxIterations; iter++ {
		sinkA := foldBlocks(k.partA)
		baseA, perSinkA := sinkShares(sinkA, n, opt.SinkPolicy)
		diff := k.phaseA(rows, baseA, perSinkA)

		sinkB := foldBlocks(k.partB)
		baseB, perSinkB := sinkShares(sinkB, n, opt.SinkPolicy)
		k.phaseB(rows, baseB, perSinkB)

		if res.recordIteration(opt, diff, sinkA, sinkB) {
			res.Converged = true
			break
		}
	}
	return res
}

// seedRanks returns the initial rank vectors, written into id's and
// prop's storage: 1.0 per vertex (paper §III-C), unless the caller seeds
// from a previous result (Options.InitialID/InitialProp — the online warm
// start). A seed of the wrong length is ignored: the graph changed shape
// and positional ranks would be meaningless. Seeds are copied, then
// rescaled to total mass N — the invariant the uniform start establishes
// and the iteration conserves. A warm seed assembled from a *different*
// graph's ranks (vertices added or removed since) carries the wrong
// total, and an off-mass seed converges to an off-mass scale while the
// slow mass-redistribution modes crawl; rescaling puts the seed back on
// the manifold the cold start iterates on.
func seedRanks(n int, opt Options, id, prop []float64) ([]float64, []float64) {
	seed := func(xs, warm []float64) []float64 {
		xs = resized(xs, n)
		if len(warm) == n {
			copy(xs, warm)
			rescaleMass(xs)
		} else {
			for i := range xs {
				xs[i] = 1
			}
		}
		return xs
	}
	return seed(id, opt.InitialID), seed(prop, opt.InitialProp)
}

// recordIteration closes one iteration's books: it appends the
// convergence diff (and, when enabled, the trace record), counts the
// iteration, fires OnIteration, and reports whether the stopping
// criterion max |Δ id_rank| < Epsilon is met. rawDiff is the max-abs
// ID-rank change as written; the smoothing blend scales every step by
// (1-σ), and dividing it back out keeps Epsilon comparable to the
// paper's unsmoothed criterion regardless of σ.
func (r *Result) recordIteration(opt Options, rawDiff, sinkA, sinkB float64) bool {
	diff := rawDiff
	if blend := 1 - opt.Smoothing; blend > 0 {
		diff /= blend
	}
	r.Diffs = append(r.Diffs, diff)
	if opt.ConvergenceTrace && len(r.Trace) < DefaultTraceCap {
		r.Trace = append(r.Trace, IterStats{
			MaxDelta:     diff,
			SinkMassID:   sinkA,
			SinkMassProp: sinkB,
		})
	}
	r.Iterations++
	if opt.OnIteration != nil {
		opt.OnIteration(r.Iterations, diff)
	}
	return diff < opt.Epsilon
}

// rescaleMass scales xs so it sums to len(xs), the mass-N scale of the
// uniform start. A non-positive sum (degenerate seed) falls back to
// uniform 1.0.
func rescaleMass(xs []float64) {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if sum <= 0 {
		for i := range xs {
			xs[i] = 1
		}
		return
	}
	scale := float64(len(xs)) / sum
	for i := range xs {
		xs[i] *= scale
	}
}

// sinkBlock is the fixed width of the kernel's row blocks and of the
// canonical sink-mass summation. Float64 addition is not associative, so
// the fold order IS the definition of the sum: per-block partials
// accumulate sequentially in ascending vertex order (the kernel emits
// them as it sweeps), and the partials fold sequentially in ascending
// block order. That order depends only on the vertex numbering — never
// on the worker count or on how the vertices are partitioned — which is
// what lets the distributed coordinator (superstep.go) reproduce the
// single-process ranks bit for bit.
const sinkBlock = 1 << 12

// foldBlocks is the second half of the canonical sum: the block partials
// in ascending block order.
func foldBlocks(partial []float64) float64 {
	var sum float64
	for _, p := range partial {
		sum += p
	}
	return sum
}

// sinkShares converts total sink mass into the per-vertex additive base
// and, for SinkToOthers, the per-sink self-exclusion factor.
func sinkShares(mass float64, n int, policy SinkPolicy) (base, perSink float64) {
	if mass == 0 {
		return 0, 0
	}
	switch policy {
	case SinkToAll:
		return mass / float64(n), 0
	case SinkDrop:
		return 0, 0
	default: // SinkToOthers
		if n <= 1 {
			return 0, 0
		}
		per := 1 / float64(n-1)
		return mass * per, per
	}
}
