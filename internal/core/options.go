package core

import (
	"faultyrank/internal/graph"
	"faultyrank/internal/par"
)

// SinkPolicy selects how the rank mass held by sink vertices (no outgoing
// edges in the graph being walked) is redistributed each iteration.
// The paper (§III-D) assumes sinks "point to all other vertices".
type SinkPolicy uint8

const (
	// SinkToOthers spreads each sink's mass uniformly over the other
	// N-1 vertices (the paper's wording; the default).
	SinkToOthers SinkPolicy = iota
	// SinkToAll spreads sink mass over all N vertices, self included —
	// the classic PageRank dangling-node treatment.
	SinkToAll
	// SinkDrop discards sink mass (ablation only; total mass decays).
	SinkDrop
)

func (p SinkPolicy) String() string {
	switch p {
	case SinkToOthers:
		return "others"
	case SinkToAll:
		return "all"
	case SinkDrop:
		return "drop"
	default:
		return "sink(?)"
	}
}

// Options configures a FaultyRank run. The zero value is not valid; use
// DefaultOptions, which reproduces the paper's constants.
type Options struct {
	// Epsilon is the convergence bound: iteration stops when the maximum
	// absolute per-vertex change of the ID rank between two consecutive
	// iterations falls below it. The paper uses ε=0.1 on ranks
	// initialised to 1.0, reporting convergence in <20 iterations.
	Epsilon float64

	// MaxIterations caps the loop regardless of convergence.
	MaxIterations int

	// UnpairedWeight is the relative weight of an unpaired edge in the
	// reversed-graph distribution (§III-D). The paper fixes it at 1/10:
	// a property that points at a credible ID without receiving the
	// acknowledging point-back earns only a tenth of the credit.
	UnpairedWeight float64

	// LeakyDistribution changes how the weighted distribution is
	// normalised. The default (false) follows the paper's Fig. 4
	// exactly: a vertex's ID mass is split among its referrers in
	// proportion to edge weights, so all of it is always handed out —
	// with the side effect that a vertex referenced by a *single*
	// unpaired pointer still passes its full mass back, propping up a
	// misdirected pointer ("phantom bounce"). With true, shares are
	// weight/in-degree instead: discounted edges leak their remainder,
	// so the property rank of a lone wishful pointer decays by
	// UnpairedWeight per iteration and collapses on its own. Kept as an
	// ablation; the default checker closes the same gap structurally.
	LeakyDistribution bool

	// SinkPolicy picks the dangling-mass treatment for both phases.
	SinkPolicy SinkPolicy

	// Smoothing blends each update with the previous iterate:
	// rank' = Smoothing·rank + (1-Smoothing)·gathered. It leaves the
	// fixed point untouched but damps the period-2 oscillation that
	// pure power iteration exhibits on tree-shaped metadata graphs
	// (directory trees are near-bipartite), which is what lets runs
	// converge in the <20 iterations the paper reports. 0 disables it
	// (the paper-literal update); negative is invalid.
	Smoothing float64

	// Threshold classifies a metadata field as faulty during detection:
	// fields of S_chk vertices whose score (on the mass-N scale, where
	// the mean is 1.0) falls below it are root-cause candidates. The
	// paper applies 0.1 to sum-normalised ranks of its 4-vertex example
	// (mean 0.25), i.e. 0.4 on the mass-N scale used here.
	Threshold float64

	// AttributionSlack widens root-cause attribution: within one
	// unpaired relation, fields below Threshold whose score is within
	// AttributionSlack× of the relation's minimum are co-flagged. 1.0
	// flags only the strict minimum; <=0 uses defaultAttributionSlack.
	AttributionSlack float64

	// Workers bounds the goroutines that sweep the rank kernel; <=0 means
	// GOMAXPROCS. The helpers beyond the calling goroutine are resident
	// for one Run / RunIncremental / RunPartition call — started once,
	// spinning briefly between its sweeps, gone when it returns — not
	// spawned per sweep, and never more than the row blocks or the
	// processors can keep busy.
	Workers int

	// InitialID and InitialProp seed the iteration instead of the
	// paper's uniform 1.0 start — the warm-start hook for incremental
	// checkers (package online): after a small metadata delta the
	// previous check's converged ranks are already near the new fixed
	// point, so seeding from them cuts the iteration count to a handful.
	// Each is used only when its length equals the graph's vertex count;
	// nil (or a stale length) falls back to the uniform start. The fixed
	// point itself does not depend on the seed, so a warm run converges
	// to the same ranks a cold run does (within Epsilon).
	InitialID, InitialProp []float64

	// Reuse hands back a result of an earlier Run or RunIncremental for
	// this run to write into: its rank vectors, convergence record,
	// frontier stats and the kernel's working arrays are overwritten in
	// place and grown append-style where too small, and the run returns
	// Reuse itself. Storage only: every number is the one a run without
	// Reuse computes. Whatever was read from Reuse before now holds the
	// new run's values. It must not share storage with InitialID or
	// InitialProp, which a run only reads. Nil allocates afresh.
	Reuse *Result

	// AlwaysRank iterates even when the graph has no unpaired edge. By
	// default (false) Run and RunIncremental follow the paper's rule that
	// only S_chk — the vertices with an unpaired edge — is judged (§III):
	// on a graph where every relation is paired nothing would read the
	// ranks, so the run returns a Skipped result without sweeping. The
	// paper-fidelity harness sets it to time T_FR on clean graphs, and
	// tests of the kernel itself set it on clean fixtures.
	AlwaysRank bool

	// ConvergenceTrace enables Result.Trace, the per-iteration record of
	// max-delta and redistributed sink mass. Off by default: the trace is
	// diagnostic output (run manifests, benches), not part of the
	// algorithm, and Result.Diffs already carries the bare convergence
	// series.
	ConvergenceTrace bool

	// frontierSaturation is the fraction of vertices beyond which
	// RunIncremental stops maintaining frontiers and iterates full
	// sweeps for the rest of the run — past that point the bookkeeping
	// costs more than it skips. <=0 uses defaultFrontierSaturation;
	// >=1 never saturates. Only this package's tests set it.
	frontierSaturation float64

	// OnIteration, when set, is called once per completed iteration (or
	// coordinated superstep) with the 1-based iteration number and the
	// convergence diff on the unsmoothed Epsilon scale. It is the
	// observability hook the checker's flight recorder uses to journal
	// rank progress without coupling the kernel to the telemetry
	// package. It runs on the iterating goroutine — keep it cheap.
	OnIteration func(iter int, maxDelta float64)
}

// frontierSlack scales RunIncremental's propagation bound: a vertex
// whose rank moved by more than Epsilon·frontierSlack (on the unsmoothed
// Epsilon scale) re-activates its dependents. 1/8 keeps the per-vertex
// drift a frontier iteration may silently accumulate well under the
// convergence bound, so the verification sweep — which makes the final
// criterion exact regardless — rarely has to re-open the frontier.
const frontierSlack = 0.125

// defaultFrontierSaturation is the active fraction of N at which
// RunIncremental falls back to full sweeps.
const defaultFrontierSaturation = 0.25

// defaultAttributionSlack is the paper's evaluation's AttributionSlack.
const defaultAttributionSlack = 2.0

// DefaultTraceCap bounds Result.Trace when ConvergenceTrace is set.
// Iterations beyond it still run and still append to Diffs — only the
// detailed trace stops growing. Runs converge in <20 iterations (paper
// §III), so 64 records every realistic run while keeping a pathological
// non-converging loop from growing the trace without bound.
const DefaultTraceCap = 64

// DefaultOptions returns the configuration used throughout the paper's
// evaluation: ε=0.1, unpaired weight 1/10, sink mass to the other N-1
// vertices, detection threshold 0.1×N-normalised (0.4 on the mean-1 scale).
func DefaultOptions() Options {
	return Options{
		Epsilon:          0.1,
		MaxIterations:    100,
		UnpairedWeight:   0.1,
		SinkPolicy:       SinkToOthers,
		Smoothing:        0.5,
		Threshold:        0.4,
		AttributionSlack: defaultAttributionSlack,
		Workers:          par.DefaultWorkers(),
	}
}

// skips reports whether Run and RunIncremental skip the iteration on b:
// b has no unpaired edge and AlwaysRank is off.
func (o Options) skips(b *graph.Bidirected) bool {
	return !o.AlwaysRank && b.UnpairedEdges() == 0
}

func (o Options) attributionSlack() float64 {
	if o.AttributionSlack <= 0 {
		return defaultAttributionSlack
	}
	return o.AttributionSlack
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return par.DefaultWorkers()
	}
	return o.Workers
}
