package checker

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"faultyrank/internal/core"
	"faultyrank/internal/graph"
	"faultyrank/internal/inject"
	"faultyrank/internal/telemetry"
	"faultyrank/internal/wire"
)

// Partitioned rank orchestration: when Options.RankWorkers > 1, the
// checker shards the CSR by the aggregator's FID hash (the same hash
// the interner probes by, so the owners map is a pure function of the
// FID table), opens a localhost rank exchange, starts one
// wire.ServeRankWorker goroutine per partition and drives the BSP
// superstep protocol as coordinator. The decomposition is exact, so the only
// observable differences from the single-process kernel are the
// per-partition spans, the exchange counters and the rank manifest.

// RankManifest is the rank section of the cluster manifest: how the
// graph was sharded, what each superstep exchanged, and — in degraded
// runs — which partition was lost and how the run completed anyway.
type RankManifest struct {
	// Partitions is the rank worker count (Options.RankWorkers).
	Partitions int `json:"partitions"`
	// Supersteps is the iteration count the exchange drove.
	Supersteps int `json:"supersteps"`
	// UpBytes/DownBytes are run totals of canonical encoded frame sizes
	// (the shipped shards are not superstep traffic and not counted).
	UpBytes   int64 `json:"up_bytes"`
	DownBytes int64 `json:"down_bytes"`
	// CutEdges counts row entries whose column lives on another
	// partition — the ghost traffic driver.
	CutEdges int64 `json:"cut_edges"`
	// Fallback, when set, records the degraded path: a partition's link
	// broke mid-exchange, and the ranks were recomputed on the
	// single-process kernel (the coordinator holds the whole graph). It
	// names the lost partition; Parts/Steps then describe the aborted
	// exchange.
	Fallback string `json:"fallback,omitempty"`
	// Parts describes each partition's share of the graph.
	Parts []core.PartSummary `json:"parts,omitempty"`
	// Steps carries the per-superstep exchange stats.
	Steps []core.SuperstepStats `json:"steps,omitempty"`
}

// runRank executes the rank iteration: the single-process sweep
// (core.Run or core.RunIncremental) for RankWorkers <= 1, the
// partitioned BSP execution of the same kernel otherwise.
func runRank(ctx context.Context, res *Result, opt Options, obs *runObs) error {
	k := opt.RankWorkers
	if k <= 1 {
		opt.Core.OnIteration = journalIterations(obs, "iteration", opt.Core.OnIteration)
		opt.Core.Reuse = res.Rank // nil on a fresh result: a new one
		if opt.RankIncremental {
			res.Rank = core.RunIncremental(res.Graph, opt.Core, opt.RankFrontier)
		} else {
			res.Rank = core.Run(res.Graph, opt.Core)
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
		return nil
	}

	opt.Core.OnIteration = journalIterations(obs, "superstep", opt.Core.OnIteration)
	_, partSpan := telemetry.StartSpan(ctx, "partition")
	owners := res.Unified.PartitionOwners(k)
	plan := graph.PartitionPlan(res.Graph, owners, k, opt.Workers)
	partSpan.End()

	man := &RankManifest{
		Partitions: k,
		CutEdges:   plan.CutEdges(),
	}
	rank, rep, err := rankOverExchange(ctx, plan, opt, obs)
	if rep != nil {
		man.Supersteps = len(rep.Supersteps)
		man.UpBytes = rep.UpBytes
		man.DownBytes = rep.DownBytes
		man.Parts = rep.Partitions
		man.Steps = rep.Supersteps
		for _, p := range rep.Partitions {
			obs.journal.Record("rank", "partition",
				"id", fmt.Sprintf("%d", p.Part),
				"locals", fmt.Sprintf("%d", p.Locals),
				"ghosts", fmt.Sprintf("%d", p.Ghosts))
		}
	}
	if err != nil {
		if !opt.AllowDegraded {
			return err
		}
		// Degraded completion: unlike a lost scanner stream, a lost rank
		// worker costs no data — the coordinator holds the whole unified
		// graph — so the run falls back to the single-process kernel and
		// the manifest names what died.
		obs.journal.Record("rank", "rank-degraded", "err", err.Error())
		man.Fallback = fmt.Sprintf("%v; re-ranked on the single-process kernel", err)
		rank = core.Run(res.Graph, opt.Core)
	}
	res.Rank = rank
	obs.rankSupersteps.Add(int64(man.Supersteps))
	obs.rankBytes.Add(man.UpBytes + man.DownBytes)
	obs.rankParts.Set(int64(k))
	res.RankExec = man
	if res.Cluster != nil {
		res.Cluster.Rank = man
	}
	return nil
}

// journalIterations chains a rank-progress journal event (kind
// "iteration" for the single-process kernel, "superstep" for the
// coordinated exchange) onto any caller-provided OnIteration hook.
func journalIterations(obs *runObs, kind string, prev func(int, float64)) func(int, float64) {
	return func(iter int, maxDelta float64) {
		obs.journal.Record("rank", kind,
			"iter", fmt.Sprintf("%d", iter),
			"max_delta", fmt.Sprintf("%.4g", maxDelta))
		if prev != nil {
			prev(iter, maxDelta)
		}
	}
}

// rankOverExchange runs the one partitioned shape: a localhost exchange
// accepts one dialing goroutine worker per partition, ships it its
// shard, and the coordinator drives the supersteps. A worker that
// crashes mid-superstep drops its connection; the coordinator's read
// fails within OpTimeout and Coordinate returns a PartError naming the
// partition — closing the exchange then releases the surviving workers,
// so nothing hangs. A worker that fails before the handshake (a dial
// fault) cancels the handshake and is reported as the first recorded
// worker error, wrapped with its partition index, instead of vanishing
// behind the generic accept failure.
func rankOverExchange(ctx context.Context, plan *graph.Plan, opt Options, obs *runObs) (*core.Result, *core.ExchangeReport, error) {
	x, addr, err := wire.NewRankExchange(opt.OpTimeout)
	if err != nil {
		return nil, nil, err
	}
	defer x.Close()
	x.Observe(obs.wireM)

	// A worker that cannot even dial would leave the accept loop waiting
	// for a connection that never comes; cancelling the handshake context
	// turns that into a prompt error instead.
	rankCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// First worker error, in arrival order, wrapped with its partition —
	// the root cause to surface when the handshake fails.
	var (
		workerOnce sync.Once
		workerErr  error
		// accepted flips once every worker has its shard: from then on a
		// worker's failure reaches the coordinator over its own link, which
		// names the partition, and must not cancel the healthy links.
		accepted atomic.Bool
	)
	recordErr := func(p int, err error) {
		workerOnce.Do(func() {
			workerErr = &core.PartError{Part: p, Err: err}
		})
	}

	workers := opt.Core.PartitionWorkers(plan.K)
	var wg sync.WaitGroup
	for p := 0; p < plan.K; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			_, sp := telemetry.StartSpan(rankCtx, fmt.Sprintf("rank:p%d", p))
			defer sp.End()
			var err error
			switch f := opt.RankFaults[p]; {
			case f == nil:
				err = wire.ServeRankWorker(rankCtx, addr, p, workers, opt.OpTimeout, nil)
			case f.FailDial:
				err = inject.ErrRankDialFault
			default:
				err = wire.ServeRankWorker(rankCtx, addr, p, workers, opt.OpTimeout, f.WrapLink)
			}
			if err != nil {
				recordErr(p, err)
				if !accepted.Load() {
					cancel()
				}
			}
		}(p)
	}
	// finish waits the cohort out once the exchange is closed under it.
	finish := func() {
		x.Close()
		wg.Wait()
	}

	links, err := x.AcceptWorkers(rankCtx, plan.Parts)
	if err != nil {
		cancel()
		finish()
		// The accept failure is usually downstream of a worker's own
		// death (it never dialed); the recorded worker error is the root
		// cause and names the partition.
		if workerErr != nil {
			return nil, nil, workerErr
		}
		return nil, nil, fmt.Errorf("checker: rank worker handshake: %w", err)
	}
	accepted.Store(true)
	rank, rep, err := core.Coordinate(plan, links, opt.Core)
	finish()
	return rank, rep, err
}
