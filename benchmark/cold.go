package main

import (
	"context"
	"fmt"
	"sync"

	"faultyrank/internal/checker"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/scanner"
	"faultyrank/internal/telemetry"
	"faultyrank/internal/wire"
)

// coldCheck is cold_check_tcp: the offline full check of a clean aged
// cluster over the TCP chunk streams — the paper's deployment shape and
// Table VI's measurement.
type coldCheck struct {
	images []*ldiskfs.Image
	ref    digest // Workers:1 in-process run computed in set-up
	opt    checker.Options
	sz     sizes
	// genRate is the set-up's cluster generation rate, inodes per second.
	genRate float64
}

func (w *coldCheck) setup(seed int64, sz sizes) error {
	c, rate, err := agedCluster(sz.MDTInodes, seed)
	if err != nil {
		return err
	}
	w.sz, w.genRate = sz, rate
	w.images = checker.ClusterImages(c)
	w.opt = checker.DefaultOptions()
	w.opt.UseTCP = true
	ref := checker.DefaultOptions()
	ref.Workers = 1
	res, err := checker.Run(w.images, ref)
	if err != nil {
		return err
	}
	w.ref = resultDigest(res)
	return nil
}

func (w *coldCheck) inputs() map[string]int64 {
	return map[string]int64{
		"mdt_inodes_target": w.sz.MDTInodes,
		"vertices":          int64(w.ref.N),
		"edges":             w.ref.E,
		"image_bytes":       imageBytes(w.images),
	}
}

// coldOracle: no findings on a clean cluster, every server covered,
// and size, iteration count and rank bits equal to the reference.
func coldOracle(ref digest, res *checker.Result) error {
	if n := len(res.Findings); n != 0 {
		return fmt.Errorf("clean cluster has %d findings", n)
	}
	if res.Coverage.Degraded() || res.Coverage.Complete() != res.Coverage.Total {
		return fmt.Errorf("coverage incomplete: missing %v", res.Coverage.Missing)
	}
	return sameDigest("cold check", resultDigest(res), ref)
}

// stageTimes reads the stage timings a result already reports.
func stageTimes(s sample, res *checker.Result) {
	s["checker.tscan_s"] = res.TScan.Seconds()
	s["checker.tgraph_s"] = res.TGraph.Seconds()
	s["checker.trank_s"] = res.TRank.Seconds()
}

func (w *coldCheck) op() (sample, error) {
	s := sample{}
	var res *checker.Result
	var err error
	timed(s, func() { res, err = checker.Run(w.images, w.opt) })
	if err != nil {
		return s, err
	}
	stageTimes(s, res)
	return s, coldOracle(w.ref, res)
}

func (w *coldCheck) traced(tr *tracer) (sample, error) {
	s := sample{}
	tr.nextOp()
	root := tr.begin("benchmark.staged_op", -1)
	streams, err := stagedScan(tr, root, s, w.images)
	if err != nil {
		return s, err
	}
	if err := stagedShip(tr, root, s, streams); err != nil {
		return s, err
	}
	u, err := stagedMerge(tr, root, s, labelsOf(w.images), streams)
	if err != nil {
		return s, err
	}
	res, err := stagedAnalyze(tr, root, s, w.images, u, w.opt)
	s["staged_s"] = tr.end(root)
	if err != nil {
		return s, err
	}
	if err := sameDigest("staged cold check", resultDigest(res), w.ref); err != nil {
		return s, err
	}
	serialProbe(tr, s, res.Graph, s["core.iterate_s"])

	var piped *checker.Result
	s["traced_result_s"] = tr.pipelineOp(func() { piped, err = checker.Run(w.images, w.opt) })
	if err != nil {
		return s, err
	}
	return s, coldOracle(w.ref, piped)
}

// stagedShip replays the recorded chunk streams through real localhost
// TCP — one ChunkStream per server into one Collector, as the pipeline
// does — delivering into a sink that only counts.
func stagedShip(tr *tracer, parent int, s sample, streams [][]*scanner.Chunk) error {
	var shipErr error
	var colRes *wire.CollectResult
	var retries int
	d, alloc := tr.stage(parent, "wire.ship", func() {
		col, addr, err := wire.NewCollector()
		if err != nil {
			shipErr = err
			return
		}
		defer col.Close()
		ctx := context.Background()
		errs := make([]error, len(streams))
		tries := make([]int, len(streams))
		var wg sync.WaitGroup
		for i, chunks := range streams {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cs, err := wire.DialChunkStreamContext(ctx, addr, wire.DefaultRetryPolicy(), 0)
				if err != nil {
					errs[i] = err
					return
				}
				defer cs.Close()
				tries[i] = cs.DialRetries()
				for _, c := range chunks {
					if errs[i] = cs.Emit(c); errs[i] != nil {
						return
					}
				}
			}()
		}
		colRes, shipErr = col.CollectChunksContext(ctx, len(streams), false, func(*scanner.Chunk) error { return nil })
		wg.Wait()
		for i, err := range errs {
			retries += tries[i]
			if err != nil && shipErr == nil {
				shipErr = err
			}
		}
	})
	if shipErr != nil {
		return shipErr
	}
	s["wire.ship_s"], s["wire.alloc_mib"] = d, alloc
	s["wire.frames"] = float64(colRes.Frames)
	s["wire.bytes"] = float64(colRes.Bytes)
	s["wire.mib_per_s"] = float64(colRes.Bytes) / (1 << 20) / d
	s["wire.dial_retries"] = float64(retries)
	s["wire.stream_errors"] = float64(len(colRes.Errors))
	return nil
}

// finish runs the partition probe: the same check with the rank stage
// split over two TCP rank workers, findings required identical to the
// single kernel. ROADMAP item 3 decides the partitioned path's future
// on these two numbers.
func (w *coldCheck) finish(tr *tracer) (sample, error) {
	s := sample{"lustre.setup_inodes_per_s": w.genRate}
	if tr == nil {
		return s, nil
	}
	opt := w.opt
	opt.RankWorkers = 2
	var iter, bytes []float64
	for i := 0; i < w.sz.ProbeOps; i++ {
		var res *checker.Result
		var err error
		tr.stage(-1, "probe.partition_k2", func() { res, err = checker.Run(w.images, opt) })
		if err != nil {
			return s, err
		}
		if err := coldOracle(w.ref, res); err != nil {
			return s, fmt.Errorf("partition probe: %w", err)
		}
		if it := findSpan(res.Phases, "iterate"); it != nil {
			iter = append(iter, it.Duration.Seconds())
		}
		if m := res.RankExec; m != nil && m.Supersteps > 0 {
			bytes = append(bytes, float64(m.UpBytes+m.DownBytes)/float64(m.Supersteps))
		}
	}
	s["core.partition_k2_iterate_s"] = median(iter)
	s["wire.rank_bytes_per_superstep"] = median(bytes)
	return s, nil
}

// findSpan returns the first node called name in a phase tree.
func findSpan(n *telemetry.SpanNode, name string) *telemetry.SpanNode {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for i := range n.Children {
		if hit := findSpan(&n.Children[i], name); hit != nil {
			return hit
		}
	}
	return nil
}
