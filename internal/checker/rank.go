package checker

import (
	"context"
	"fmt"
	"sync"
	"time"

	"faultyrank/internal/core"
	"faultyrank/internal/graph"
	"faultyrank/internal/inject"
	"faultyrank/internal/telemetry"
	"faultyrank/internal/wire"
)

// Partitioned rank orchestration: when Options.RankWorkers > 1, the
// checker shards the CSR by the aggregator's FID hash (the same hash
// the interner probes by, so the owners map is a pure function of the
// FID table), spawns one rank worker per partition, and drives the
// BSP superstep protocol as coordinator. The decomposition is exact, so
// the only observable differences from the single-process kernel are
// the per-partition spans, the exchange counters and the rank manifest.

// RankManifest is the rank section of the cluster manifest: how the
// graph was sharded, what each superstep exchanged, and — in degraded
// runs — which partition was lost and how the run completed anyway.
type RankManifest struct {
	// Partitions is the rank worker count (Options.RankWorkers).
	Partitions int `json:"partitions"`
	// Transport is "in-process" or "tcp" — which link flavour carried
	// the superstep frames.
	Transport string `json:"transport"`
	// Supersteps is the iteration count the exchange drove.
	Supersteps int `json:"supersteps"`
	// UpBytes/DownBytes are run totals of canonical encoded frame sizes
	// (identical on both transports by construction).
	UpBytes   int64 `json:"up_bytes"`
	DownBytes int64 `json:"down_bytes"`
	// CutEdges counts row entries whose column lives on another
	// partition — the ghost traffic driver.
	CutEdges int64 `json:"cut_edges"`
	// Remote records that the workers were separate frrankd processes
	// (Options.RankRemote / RankSpawn) rather than goroutines of the
	// checker.
	Remote bool `json:"remote,omitempty"`
	// WorkerRSS, on spawned runs, is each partition's peak resident set
	// in bytes (wait4 rusage) — the observable the ROADMAP item-1 exit
	// criterion (per-worker RSS near 1/K) is judged on.
	WorkerRSS []int64 `json:"worker_rss,omitempty"`
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
		Transport:  "in-process",
		CutEdges:   plan.CutEdges(),
	}
	// Remote workers and explicit bind addresses only exist over TCP, so
	// either forces the socket path even when the scan ran in process.
	tcpRank := opt.UseTCP || opt.rankRemote() || opt.RankListen != ""
	if tcpRank {
		man.Transport = "tcp"
	}

	var (
		rank *core.Result
		rep  *core.ExchangeReport
		err  error
	)
	if tcpRank {
		rank, rep, err = rankOverTCP(ctx, plan, opt, obs, man)
	} else {
		// Goroutine workers on channel link pairs — same protocol, same
		// frames, no sockets.
		rank, rep, err = core.RunPartitioned(plan, opt.Core, func(p int, wopt core.Options, link core.Link) error {
			return workerLoop(ctx, plan, p, wopt, opt, link)
		})
	}
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

// workerLoop is one rank worker's lifetime under its own telemetry
// span, with any injected fault interposed on the link.
func workerLoop(ctx context.Context, plan *graph.Plan, p int, wopt core.Options, opt Options, link core.Link) error {
	_, sp := telemetry.StartSpan(ctx, fmt.Sprintf("rank:p%d", p))
	defer sp.End()
	if f := opt.RankFaults[p]; f != nil {
		link = f.WrapLink(link)
	}
	return core.RunPartition(core.NewPartState(plan.Parts[p], wopt), link)
}

// rankRemote reports whether the rank workers are separate processes:
// externally launched (RankRemote) or exec'd by the checker (RankSpawn).
func (opt Options) rankRemote() bool {
	return opt.RankRemote || opt.RankSpawn != ""
}

// handshakeTimeout bounds the wait for remote workers to dial in. A
// worker that never arrives must become an error, not a hang — even
// when no OpTimeout was configured.
func (opt Options) handshakeTimeout() time.Duration {
	if opt.OpTimeout > 0 {
		return opt.OpTimeout
	}
	return 60 * time.Second
}

// rankOverTCP runs the deployment shape: an exchange (localhost by
// default, Options.RankListen to go beyond it) accepts one dialing
// worker per partition — in-process dial goroutines normally, separate
// frrankd processes with RankRemote/RankSpawn — validates each Hello
// against the plan, and ships shards to workers that arrive without
// one. A worker that crashes mid-superstep drops its connection; the
// coordinator's read fails within OpTimeout and Coordinate returns a
// PartError naming the partition — closing the exchange then releases
// the surviving workers, so nothing hangs. A worker that fails before
// the handshake (dial fault, dead process) is reported as the first
// recorded worker error, wrapped with its partition index, instead of
// vanishing behind the generic accept failure.
func rankOverTCP(ctx context.Context, plan *graph.Plan, opt Options, obs *runObs, man *RankManifest) (*core.Result, *core.ExchangeReport, error) {
	x, addr, err := wire.NewRankExchange(opt.RankListen, opt.OpTimeout)
	if err != nil {
		return nil, nil, err
	}
	defer x.Close()
	x.Observe(obs.wireM)
	man.Remote = opt.rankRemote()

	// A worker that cannot even dial would leave the accept loop waiting
	// for a connection that never comes; cancelling the handshake context
	// turns that into a prompt error instead.
	rankCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Canonical shard blobs: their fingerprints are what a valid Hello
	// must carry, and the blobs themselves are shipped to workers that
	// announce with none.
	blobs := make([][]byte, plan.K)
	sums := make([]uint64, plan.K)
	for p, sub := range plan.Parts {
		blobs[p] = graph.EncodeSubGraph(sub)
		sums[p] = graph.FingerprintShard(blobs[p])
	}
	spec := wire.WorkerSpec{
		K:     plan.K,
		Sums:  sums,
		Shard: func(p int) []byte { return blobs[p] },
	}

	// First worker error, in arrival order, wrapped with its partition —
	// the root cause to surface when the handshake fails.
	var (
		workerOnce sync.Once
		workerErr  error
	)
	recordErr := func(p int, err error) {
		workerOnce.Do(func() {
			workerErr = &core.PartError{Part: p, Err: err}
		})
	}

	wopt := opt.Core.PerPartition(plan.K)
	var wg sync.WaitGroup
	var procs *spawnedWorkers
	if opt.rankRemote() {
		spec.HandshakeTimeout = opt.handshakeTimeout()
		if opt.RankSpawn != "" {
			procs, err = spawnRankWorkers(opt, plan, addr, wopt.Workers, recordErr)
			if err != nil {
				return nil, nil, err
			}
		}
	} else {
		for p := 0; p < plan.K; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				if f := opt.RankFaults[p]; f != nil && f.FailDial {
					recordErr(p, inject.ErrRankDialFault)
					cancel()
					return
				}
				conn, err := wire.DialRankLink(rankCtx, addr, p, plan.K, sums[p], opt.Retry, opt.OpTimeout)
				if err != nil {
					recordErr(p, fmt.Errorf("dialing rank exchange: %w", err))
					cancel()
					return
				}
				defer conn.Close()
				if err := workerLoop(rankCtx, plan, p, wopt, opt, conn); err != nil {
					recordErr(p, err)
				}
			}(p)
		}
	}

	links, err := x.AcceptWorkers(rankCtx, spec)
	if err != nil {
		x.Close()
		cancel()
		wg.Wait()
		if procs != nil {
			man.WorkerRSS = procs.finish(opt.handshakeTimeout())
		}
		// The accept failure is usually downstream of a worker's own
		// death (it never dialed, or died pre-handshake); the recorded
		// worker error is the root cause and names the partition.
		if workerErr != nil {
			return nil, nil, workerErr
		}
		return nil, nil, fmt.Errorf("checker: rank worker handshake: %w", err)
	}
	rank, rep, err := core.Coordinate(plan, links, opt.Core)
	x.Close()
	wg.Wait()
	if procs != nil {
		man.WorkerRSS = procs.finish(opt.handshakeTimeout())
	}
	return rank, rep, err
}
