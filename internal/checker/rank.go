package checker

import (
	"fmt"

	"faultyrank/internal/core"
)

// RankManifest is what remains of the partitioned rank execution's
// manifest: the exchange it drove, in supersteps and bytes.
//
// Deprecated: the rank runs on the single kernel only, so
// Result.RankExec is always nil. The type goes with RankExec.
type RankManifest struct {
	Supersteps int   `json:"supersteps"`
	UpBytes    int64 `json:"up_bytes"`
	DownBytes  int64 `json:"down_bytes"`
}

// runRank executes the rank iteration on the single kernel: core.Run,
// or core.RunIncremental on the online tracker's warm path. A graph with
// every relation paired comes back Skipped without a sweep.
func runRank(res *Result, opt Options, obs *runObs) {
	opt.Core.OnIteration = journalIterations(obs, opt.Core.OnIteration)
	opt.Core.Reuse = res.Rank // nil on a fresh result: a new one
	if opt.RankIncremental {
		res.Rank = core.RunIncremental(res.Graph, opt.Core, opt.RankFrontier)
	} else {
		res.Rank = core.Run(res.Graph, opt.Core)
	}
	if res.Rank.Skipped {
		obs.journal.Record("rank", "skipped")
	}
	if fs := res.Rank.Frontier; fs != nil {
		obs.journal.Record("rank", "frontier",
			"seeds", fmt.Sprintf("%d", fs.Seeds),
			"touched", fmt.Sprintf("%d", fs.Touched),
			"full_sweeps", fmt.Sprintf("%d", fs.FullSweeps))
		if fs.Saturated {
			obs.journal.Record("rank", "frontier-saturated")
		}
	}
}

// journalIterations chains a rank-progress journal event onto any
// caller-provided OnIteration hook.
func journalIterations(obs *runObs, prev func(int, float64)) func(int, float64) {
	return func(iter int, maxDelta float64) {
		obs.journal.Record("rank", "iteration",
			"iter", fmt.Sprintf("%d", iter),
			"max_delta", fmt.Sprintf("%.4g", maxDelta))
		if prev != nil {
			prev(iter, maxDelta)
		}
	}
}
