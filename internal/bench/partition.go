package bench

import (
	"fmt"
	"time"

	"faultyrank/internal/checker"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/telemetry"
	"faultyrank/internal/workload"
)

// PartitionRow is one partition count's line of the rank-scaling
// artifact: how the BSP superstep execution behaves as the CSR is
// sharded across 1/2/4/8 rank workers. The k=1 row is the legacy
// single-process kernel — the baseline every partitioned row must match
// finding for finding (the decomposition is exact, so any divergence is
// a bug, and PartitionMeasure fails rather than tabulating it).
type PartitionRow struct {
	K int
	// Workers says who ran the gather: the single "kernel" (k = 1),
	// "goroutine" rank workers of the checker, or "spawned" frrankd
	// processes. Every k > 1 run goes through the same TCP exchange.
	Workers    string
	Iterations int
	Supersteps int
	// CutEdges counts row entries whose column lives on another
	// partition; ghost traffic is proportional to it.
	CutEdges int64
	// UpBytes/DownBytes are run totals of encoded superstep frames;
	// StepBytes is their per-superstep average — the steady-state
	// exchange volume one iteration costs.
	UpBytes, DownBytes, StepBytes int64
	RankSeconds                   float64
	Findings                      int
	// MaxWorkerRSS is the largest spawned worker's self-reported peak
	// resident set in bytes (spawned runs only, 0 otherwise).
	// CheckerRSS is this process's own high-water mark once the run has
	// finished — it holds the images and the whole graph, and only ever
	// grows across the sweep. The two are the memory side of ROADMAP
	// item 3.
	MaxWorkerRSS, CheckerRSS int64
}

// partitionCounts is the sweep the artifact reports.
var partitionCounts = []int{1, 2, 4, 8}

// PartitionMeasure ages one 1 MDT + 8 OST cluster, then runs the TCP
// checker once per partition count. Scan and aggregation repeat each
// run but only the rank stage is tabulated; the per-superstep exchange
// numbers come from the run's rank manifest. A non-empty spawn path
// execs that frrankd binary once per partition (k > 1) instead of
// running the workers in process, and tabulates each cohort's largest
// per-process peak RSS.
func PartitionMeasure(scale Scale, workers int, spawn string) ([]PartitionRow, error) {
	geometry := ldiskfs.CompactGeometry()
	if scale == ScalePaper {
		geometry = ldiskfs.DefaultGeometry()
	}
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 8, StripeSize: 64 << 10, StripeCount: -1, Geometry: geometry,
	})
	if err != nil {
		return nil, err
	}
	target := ingestTarget(scale)
	if _, err := workload.Age(c, workload.AgeSpec{
		TargetMDTInodes: target, ChurnFraction: 0.15, Seed: target,
	}); err != nil {
		return nil, err
	}
	images := checker.ClusterImages(c)

	var rows []PartitionRow
	var base *checker.Result
	for _, k := range partitionCounts {
		opt := checker.DefaultOptions()
		opt.UseTCP = true
		opt.Workers = workers
		opt.ChunkSize = 1024
		opt.RankWorkers = k
		opt.OpTimeout = 30 * time.Second
		if spawn != "" && k > 1 {
			opt.RankSpawn = spawn
		}
		res, err := checker.Run(images, opt)
		if err != nil {
			return nil, fmt.Errorf("bench: partition run k=%d: %w", k, err)
		}
		if base == nil {
			base = res
		} else if err := samePartitionFindings(base, res); err != nil {
			return nil, fmt.Errorf("bench: partition run k=%d diverged: %w", k, err)
		}
		row := PartitionRow{
			K:           k,
			Workers:     "kernel",
			Iterations:  res.Rank.Iterations,
			Supersteps:  res.Rank.Iterations,
			RankSeconds: res.TRank.Seconds(),
			Findings:    len(res.Findings),
			CheckerRSS:  telemetry.PeakRSS(),
		}
		if man := res.RankExec; man != nil {
			row.Workers = "goroutine"
			if man.Remote {
				row.Workers = "spawned"
			}
			row.Supersteps = man.Supersteps
			row.CutEdges = man.CutEdges
			row.UpBytes = man.UpBytes
			row.DownBytes = man.DownBytes
			if man.Supersteps > 0 {
				row.StepBytes = (man.UpBytes + man.DownBytes) / int64(man.Supersteps)
			}
			if man.Fallback != "" {
				return nil, fmt.Errorf("bench: partition run k=%d fell back: %s", k, man.Fallback)
			}
			for _, rss := range man.WorkerRSS {
				if rss > row.MaxWorkerRSS {
					row.MaxWorkerRSS = rss
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// samePartitionFindings demands bit-exact rank equality between two
// runs of the same images — the artifact's correctness cross-check.
func samePartitionFindings(a, b *checker.Result) error {
	if len(a.Findings) != len(b.Findings) {
		return fmt.Errorf("%d findings vs baseline's %d", len(b.Findings), len(a.Findings))
	}
	for i := range a.Findings {
		x, y := a.Findings[i], b.Findings[i]
		if x.Kind != y.Kind || x.FID != y.FID || x.Score != y.Score {
			return fmt.Errorf("finding %d: [%v] %v %.6f vs baseline [%v] %v %.6f",
				i, y.Kind, y.FID, y.Score, x.Kind, x.FID, x.Score)
		}
	}
	if a.Rank.Iterations != b.Rank.Iterations {
		return fmt.Errorf("%d iterations vs baseline's %d", b.Rank.Iterations, a.Rank.Iterations)
	}
	return nil
}

// PartitionTable renders the partition-count scaling sweep.
func PartitionTable(rows []PartitionRow) *Table {
	t := &Table{
		Title: "Rank-stage partition scaling (BSP supersteps over TCP, 1 MDT + 8 OSTs)",
		Columns: []string{
			"k", "workers", "iters", "supersteps", "cut-edges",
			"up MiB", "down MiB", "KiB/step", "rank(s)", "worker MiB", "checker MiB", "findings",
		},
	}
	for _, r := range rows {
		workerRSS := "-"
		if r.MaxWorkerRSS > 0 {
			workerRSS = mib(r.MaxWorkerRSS)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.K),
			r.Workers,
			fmt.Sprintf("%d", r.Iterations),
			fmt.Sprintf("%d", r.Supersteps),
			fmt.Sprintf("%d", r.CutEdges),
			mib(r.UpBytes),
			mib(r.DownBytes),
			fmt.Sprintf("%.1f", float64(r.StepBytes)/(1<<10)),
			fmt.Sprintf("%.4f", r.RankSeconds),
			workerRSS,
			mib(r.CheckerRSS),
			fmt.Sprintf("%d", r.Findings),
		})
	}
	t.Notes = append(t.Notes,
		"k=1 is the legacy single-process kernel; partitioned rows are bit-identical to it by construction (the run fails if not)",
		"cut-edges drive the ghost exchange; KiB/step is the steady per-iteration frame volume (canonical encoded sizes)",
		"rank(s) includes partitioning, the superstep exchange and classification — the paper's T_FR column shape",
		"worker MiB is the largest spawned frrankd process's peak RSS as the process itself reports it (VmHWM; -rank-spawn runs, '-' when workers ran in process)",
		"checker MiB is this process's own VmHWM after the row's run — a high-water mark, so it never falls from one row to the next")
	return t
}
