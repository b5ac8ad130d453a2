package main

import (
	"fmt"
	"math/rand"
	"time"

	"faultyrank/internal/agg"
	"faultyrank/internal/checker"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/online"
	"faultyrank/internal/scanner"
)

// onlineDelta is online_delta: a small metadata delta applied to a live
// aged cluster, then one incremental Tracker.Check. The same layers as
// the cold check, used differently — the change feed instead of a
// sweep, DeltaBuilder.Materialize instead of the sharded merge,
// RunIncremental instead of Run — so a cold-path win that costs the
// delta path shows as a regression here. The only workload with
// deletes.
type onlineDelta struct {
	c       *lustre.Cluster
	images  []*ldiskfs.Image
	opt     checker.Options
	tracker *online.Tracker
	rng     *rand.Rand
	live    []string // files the mutation script created and has not unlinked
	round   int
	sz      sizes
	genRate float64 // set-up's cluster generation rate, inodes per second

	// The traced phase runs on its own tracker with a shadow that
	// replays each round's delta through the public stage functions in
	// lock step, so the two can be compared bit for bit.
	traceTracker *online.Tracker
	shadow       *shadowTracker
}

const deltaDir = "/delta"

func (w *onlineDelta) setup(seed int64, sz sizes) error {
	c, rate, err := agedCluster(sz.MDTInodes, seed)
	if err != nil {
		return err
	}
	w.c, w.sz, w.genRate = c, sz, rate
	w.images = checker.ClusterImages(c)
	w.opt = checker.DefaultOptions()
	w.rng = rand.New(rand.NewSource(seed))
	if w.tracker, err = online.NewTracker(w.images, w.opt); err != nil {
		return err
	}
	// The first check is cold by definition; the rounds measure the
	// warm steady state.
	res, err := w.tracker.Check()
	if err != nil {
		return err
	}
	return roundOracle(res)
}

func (w *onlineDelta) inputs() map[string]int64 {
	return map[string]int64{
		"mdt_inodes_target": w.sz.MDTInodes,
		"total_inodes":      w.c.TotalInodes(),
		"image_bytes":       imageBytes(w.images),
		"delta_creates":     8, "delta_unlinks": 2, "delta_renames": 1, "delta_truncates": 1,
	}
}

// mutate applies one round's delta: 8 creates of 3-stripe files, then 2
// unlinks, 1 rename and 1 truncate among the script's own files.
func (w *onlineDelta) mutate() error {
	w.round++
	// A fresh directory every 100 rounds keeps each well under the
	// compact geometry's dirent-block capacity.
	dir := fmt.Sprintf("%s/d%03d", deltaDir, w.round/100)
	if err := w.c.MkdirAll(dir); err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("%s/r%05d-%d", dir, w.round, i)
		if _, err := w.c.Create(p, 3*64<<10); err != nil {
			return err
		}
		w.live = append(w.live, p)
	}
	for i := 0; i < 2; i++ {
		k := w.rng.Intn(len(w.live))
		if err := w.c.Unlink(w.live[k]); err != nil {
			return err
		}
		w.live[k] = w.live[len(w.live)-1]
		w.live = w.live[:len(w.live)-1]
	}
	k := w.rng.Intn(len(w.live))
	moved := fmt.Sprintf("%s.m%d", w.live[k], w.round)
	if err := w.c.Rename(w.live[k], moved); err != nil {
		return err
	}
	w.live[k] = moved
	return w.c.Truncate(w.live[w.rng.Intn(len(w.live))], int64(1+w.rng.Intn(5))*64<<10)
}

// roundOracle: the cluster is only ever mutated through its API, so a
// round must find nothing.
func roundOracle(res *online.CheckResult) error {
	if n := len(res.Findings); n != 0 {
		return fmt.Errorf("round %d: %d findings on a consistent cluster", res.Round, n)
	}
	return nil
}

func (w *onlineDelta) op() (sample, error) {
	s := sample{}
	t0 := time.Now()
	if err := w.mutate(); err != nil {
		return s, err
	}
	s["online.mutate_s"] = time.Since(t0).Seconds()
	fallbacks := w.tracker.Stats().WarmFallbacks
	var res *online.CheckResult
	var err error
	timed(s, func() { res, err = w.tracker.Check() })
	if err != nil {
		return s, err
	}
	stageTimes(s, res.Result)
	s["online.refreshed_inodes"] = float64(res.InodesRefreshed)
	s["online.accounted_s"] = (res.TUpdate + res.TGraph + res.TRank).Seconds()
	s["online.unaccounted_s"] = s["result_s"] - s["online.accounted_s"]
	s["online.warm_fallbacks"] = float64(w.tracker.Stats().WarmFallbacks - fallbacks)
	s["core.iterations"] = float64(res.Rank.Iterations)
	if fr := res.Rank.Frontier; fr != nil {
		s["core.frontier_touched"] = float64(fr.Touched)
		s["core.frontier_full_sweeps"] = float64(fr.FullSweeps)
		s["core.touched_per_seed"] = float64(fr.Touched) / float64(max(fr.Seeds, 1))
	}
	return s, roundOracle(res)
}

// onlineFinishOracle: a cold full check of the same images sees the
// same graph size and the same findings as the last incremental round.
func onlineFinishOracle(last *online.CheckResult, cold *checker.Result) error {
	if last.Unified.N() != cold.Unified.N() {
		return fmt.Errorf("online N=%d, cold N=%d", last.Unified.N(), cold.Unified.N())
	}
	if hashFindings(last.Findings) != hashFindings(cold.Findings) || len(last.Findings) != len(cold.Findings) {
		return fmt.Errorf("online has %d findings, cold %d, or they differ", len(last.Findings), len(cold.Findings))
	}
	return nil
}

func (w *onlineDelta) finish(*tracer) (sample, error) {
	s := sample{"lustre.setup_inodes_per_s": w.genRate}
	tracker := w.tracker
	if w.traceTracker != nil {
		tracker = w.traceTracker
	}
	// One more round with nothing pending gives the state to compare.
	last, err := tracker.Check()
	if err != nil {
		return s, err
	}
	t0 := time.Now()
	cold, err := checker.Run(w.images, w.opt)
	if err != nil {
		return s, err
	}
	s["cold_check_s"] = time.Since(t0).Seconds()
	return s, onlineFinishOracle(last, cold)
}

// shadowTracker mirrors what online.Tracker keeps between rounds, using
// only public functions, so each stage of a round can be timed from
// outside and the outcome compared with the tracker's own.
type shadowTracker struct {
	images           []*ldiskfs.Image
	delta            *agg.DeltaBuilder
	prevID, prevProp []float64
	lastIters        int
}

// newShadow performs the same initial full scan as online.NewTracker,
// in the same order, so both interners assign the same ids.
func newShadow(images []*ldiskfs.Image) (*shadowTracker, error) {
	sh := &shadowTracker{images: images, delta: agg.NewDeltaBuilder(labelsOf(images))}
	for si, img := range images {
		err := img.AllocatedInodes(func(ino ldiskfs.Ino, _ ldiskfs.FileType) error {
			p, err := scanner.ScanInode(img, ino)
			if err != nil {
				return err
			}
			return sh.delta.Apply(si, ino, p)
		})
		if err != nil {
			return nil, err
		}
	}
	return sh, nil
}

// apply replays one round's dirty-inode feed in Tracker.Update's commit
// order (server, then inode), which is what fixes the interner's ids.
func (sh *shadowTracker) apply(dirty [][]ldiskfs.Ino) error {
	for si, img := range sh.images {
		for _, ino := range dirty[si] {
			if !img.InodeAllocated(ino) {
				if sh.delta.Tracked(si, ino) {
					sh.delta.Remove(si, ino)
				}
				continue
			}
			p, err := scanner.ScanInode(img, ino)
			if err != nil {
				return err
			}
			if err := sh.delta.Apply(si, ino, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// lift maps IID-indexed ranks into this materialisation's GID space.
func lift(prev []float64, mat *agg.Materialized) []float64 {
	out := make([]float64, len(mat.IIDOfGID))
	for g, iid := range mat.IIDOfGID {
		out[g] = 1
		if int(iid) < len(prev) {
			out[g] = prev[iid]
		}
	}
	return out
}

// check is the staged counterpart of Tracker.Check after the feed has
// been applied: materialise, lift the warm vectors, analyse with the
// incremental kernel (cold when there is no warm state or the warm
// attempt runs out of budget), keep the converged ranks.
func (sh *shadowTracker) check(tr *tracer, parent int, s sample, opt checker.Options) (*checker.Result, error) {
	var mat *agg.Materialized
	s["agg.materialize_s"], s["agg.alloc_mib"] = tr.stage(parent, "agg.materialize", func() { mat = sh.delta.Materialize() })
	s["agg.dirty_seeds"] = float64(len(mat.DirtySeeds))
	s["agg.vertices"] = float64(mat.U.N())
	s["agg.edges"] = float64(len(mat.U.Edges))

	var res *checker.Result
	var err error
	if sh.prevID != nil {
		wopt := opt
		tr.stage(parent, "online.lift_warm", func() {
			wopt.Core.InitialID = lift(sh.prevID, mat)
			wopt.Core.InitialProp = lift(sh.prevProp, mat)
		})
		// The tracker's warm budget: twice the last converged count,
		// floor 16, capped by the configured maximum.
		wopt.Core.MaxIterations = min(max(2*sh.lastIters, 16), opt.Core.MaxIterations)
		wopt.RankIncremental = true
		wopt.RankFrontier = mat.DirtySeeds
		if res, err = stagedAnalyze(tr, parent, s, sh.images, mat.U, wopt); err != nil {
			return nil, err
		}
	}
	if res == nil || !res.Rank.Converged {
		res = &checker.Result{}
		if err = checker.AnalyzeUnified(res, sh.images, mat.U, opt); err != nil {
			return nil, err
		}
	}
	if res.Rank.Converged {
		tr.stage(parent, "online.save_warm", func() {
			sh.prevID = make([]float64, mat.NumIIDs)
			sh.prevProp = make([]float64, mat.NumIIDs)
			for i := range sh.prevID {
				sh.prevID[i], sh.prevProp[i] = 1, 1
			}
			for g, iid := range mat.IIDOfGID {
				sh.prevID[iid] = res.Rank.IDRank[g]
				sh.prevProp[iid] = res.Rank.PropRank[g]
			}
		})
		sh.delta.ResetDirty()
		sh.lastIters = res.Rank.Iterations
	}
	return res, nil
}

// beginTrace builds the traced phase's tracker and shadow from the
// current images and takes both through the cold first check.
func (w *onlineDelta) beginTrace(tr *tracer) error {
	w.tracker = nil // the untraced phase is over; free its state
	var err error
	if w.traceTracker, err = online.NewTracker(w.images, w.opt); err != nil {
		return err
	}
	if w.shadow, err = newShadow(w.images); err != nil {
		return err
	}
	res, err := w.traceTracker.Check()
	if err != nil {
		return err
	}
	root := tr.begin("benchmark.shadow_cold_check", -1)
	staged, err := w.shadow.check(tr, root, sample{}, w.opt)
	tr.end(root)
	if err != nil {
		return err
	}
	return sameDigest("shadow cold check", resultDigest(staged), resultDigest(res.Result))
}

func (w *onlineDelta) traced(tr *tracer) (sample, error) {
	s := sample{}
	if w.shadow == nil {
		if err := w.beginTrace(tr); err != nil {
			return s, err
		}
	}
	t0 := time.Now()
	if err := w.mutate(); err != nil {
		return s, err
	}
	s["online.mutate_s"] = time.Since(t0).Seconds()
	// Reading the feed does not consume it; Update below does.
	dirty := make([][]ldiskfs.Ino, len(w.images))
	for i, img := range w.images {
		dirty[i] = img.DirtyInodes()
	}
	var err error
	var refreshed int
	tr.nextOp()
	s["online.update_s"], _ = tr.stage(-1, "online.update", func() { refreshed, err = w.traceTracker.Update() })
	if err != nil {
		return s, err
	}
	s["online.refreshed_inodes"] = float64(refreshed)

	root := tr.begin("benchmark.staged_op", -1)
	_, s["scanner.alloc_mib"] = tr.stage(root, "scanner.rescan_delta", func() { err = w.shadow.apply(dirty) })
	if err != nil {
		return s, err
	}
	staged, err := w.shadow.check(tr, root, s, w.opt)
	s["staged_s"] = tr.end(root) + s["online.update_s"]
	if err != nil {
		return s, err
	}

	// The feed is already consumed, so this Check is a round minus its
	// update; the two together are the traced round.
	var res *online.CheckResult
	check := tr.pipelineOp(func() { res, err = w.traceTracker.Check() })
	if err != nil {
		return s, err
	}
	s["traced_result_s"] = s["online.update_s"] + check
	if err := roundOracle(res); err != nil {
		return s, err
	}
	return s, sameDigest("staged online round", resultDigest(staged), resultDigest(res.Result))
}
