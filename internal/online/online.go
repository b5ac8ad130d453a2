// Package online implements the paper's first future-work item (§VIII):
// an *online* FaultyRank that does not require unmounting the file
// system. Instead of rescanning every server from scratch, a Tracker
// maintains each server's partial graph incrementally by consuming the
// image's dirty-inode feed (the simulation counterpart of Lustre's
// ChangeLog): only the inodes whose metadata changed since the last
// update are re-parsed, and checks run on the maintained snapshot.
//
// The pipeline is incremental end to end. Re-parsed inodes feed an
// agg.DeltaBuilder that keeps the FID interner and the unified graph's
// per-inode contributions cached across checks, so a check after a
// small delta re-interns only the delta instead of re-merging every
// server's full partial. Ranking warm-starts from the previous check's
// converged ranks (core.Options.InitialID/InitialProp), carried across
// checks on the builder's stable internal ids, so the kernel converges
// in a handful of iterations instead of re-deriving everything from the
// uniform start.
//
// The equivalence invariant — an incrementally maintained snapshot
// yields exactly the findings of a full offline rescan — is what makes
// the online mode trustworthy, and is enforced by property tests
// (FID-space graph equivalence plus finding-for-finding agreement with
// a cold merge and checker.AnalyzeUnified over fresh scans).
//
// Silent corruption (byte flips that bypass the metadata API) does not
// appear in the change feed, exactly as it would not appear in a real
// changelog; Tracker.Rescan forces a full resweep for that case, and
// deployments would pair the online checker with periodic full scrubs.
package online

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"faultyrank/internal/agg"
	"faultyrank/internal/checker"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/scanner"
	"faultyrank/internal/telemetry"
)

// Tracker maintains incrementally-updated partial graphs for a set of
// server images (MDT first, then OSTs — the canonical order).
type Tracker struct {
	images  []*ldiskfs.Image
	servers []*serverState
	opt     checker.Options

	// delta is the incremental aggregator: per-inode contributions and
	// the FID interner survive across checks.
	delta *agg.DeltaBuilder

	// Warm-start state, indexed by the delta builder's stable internal
	// ids so ranks survive arbitrary GID renumbering between checks; it
	// is updated in place. liftID and liftProp are the buffers it is
	// lifted into a check's GID space through — the kernel copies its
	// seeds, so they are free again when the check returns.
	prevID, prevProp []float64
	liftID, liftProp []float64
	haveWarm         bool

	// last is the most recent round's result. The next round analyses
	// into a copy of it, so its graph, rank and scratch storage carry
	// over (checker.AnalyzeUnified) while each round's result is its own.
	last *checker.Result

	// sweep scans a whole image (scanner.ScanImage) and parse appends one
	// inode's records to a partial (scanner.AppendInode): the tracker's
	// two ways of reading an image, and the seams InjectScanFault wraps.
	sweep func(*ldiskfs.Image, int) (*scanner.Partial, error)
	parse func(*scanner.Partial, *ldiskfs.Image, ldiskfs.Ino) error

	// batch is the partial a round parses one server's dirty inodes into,
	// and freed the dirty inodes it found deallocated; both are reused
	// from server to server and round to round.
	batch scanner.Partial
	freed []ldiskfs.Ino

	// lastIters is the most recent converged check's iteration count —
	// the yardstick for the next warm attempt's budget.
	lastIters int

	// Lifetime stats. updates counts only rounds that refreshed at
	// least one inode — idle watch rounds are not "updates" — and
	// inodesRescan counts exactly the inodes whose refresh was
	// committed, even when a later server's feed fails mid-round;
	// inodesDropped is the committed subset that were deallocations.
	updates       int64
	inodesRescan  int64
	inodesDropped int64
	checks        int64
	warmFallbacks int64
	rescans       int64
}

// warmIterCap bounds a warm ranking attempt: twice the last converged
// count (floor 16), never above the configured cap. A warm seed that
// has not converged within that budget is resuming a creep the cold
// criterion would truncate — not saving work.
func warmIterCap(lastIters, maxIters int) int {
	c := 2 * lastIters
	if c < 16 {
		c = 16
	}
	if maxIters > 0 && c > maxIters {
		c = maxIters
	}
	return c
}

// serverState is one server's image handle plus its telemetry. The scan
// results themselves live in the delta builder's contribution cache —
// the single copy of the maintained snapshot (it used to be duplicated
// here as a per-inode partial map).
type serverState struct {
	img *ldiskfs.Image

	// Per-server instruments: the online analogue of the per-server
	// registries an offline check's manifest sections snapshot.
	reg       *telemetry.Registry
	refreshed *telemetry.Counter // scanner_inodes_scanned_total
	dropped   *telemetry.Counter // online_inodes_dropped_total
	rounds    *telemetry.Counter // online_update_rounds_total
	lastSpan  *telemetry.SpanNode
}

func newServerState(img *ldiskfs.Image) *serverState {
	reg := telemetry.NewRegistry()
	return &serverState{
		img:       img,
		reg:       reg,
		refreshed: reg.Counter("scanner_inodes_scanned_total"),
		dropped:   reg.Counter("online_inodes_dropped_total"),
		rounds:    reg.Counter("online_update_rounds_total"),
	}
}

// NewTracker performs the initial full scan (clearing the change feeds)
// and returns a tracker ready for incremental updates. An unset opt.Core
// means the paper's defaults (checker.Options.WithDefaults).
func NewTracker(images []*ldiskfs.Image, opt checker.Options) (*Tracker, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("online: no images")
	}
	t := blankTracker(images, opt)
	if err := t.fullScan(); err != nil {
		return nil, err
	}
	return t, nil
}

// blankTracker returns a tracker over images that tracks nothing yet.
func blankTracker(images []*ldiskfs.Image, opt checker.Options) *Tracker {
	t := &Tracker{images: images, opt: opt.WithDefaults(), sweep: scanner.ScanImage, parse: scanner.AppendInode}
	for _, img := range images {
		t.servers = append(t.servers, newServerState(img))
	}
	return t
}

// fullScan rebuilds the incremental aggregator from scratch: each image,
// one at a time in canonical order, is swept as a cold check sweeps it
// (scanner.ScanImage over opt.Workers) into a fresh builder. It is
// all-or-nothing: only once every server has swept does the new builder
// replace the old one, are the change feeds cleared and is the warm
// state dropped, so a failed sweep leaves the tracker as it was.
func (t *Tracker) fullScan() error {
	labels := make([]string, len(t.images))
	for i, img := range t.images {
		labels[i] = img.Label()
	}
	delta := agg.NewDeltaBuilder(labels)
	for si, img := range t.images {
		p, err := t.sweep(img, t.opt.Workers)
		if err != nil {
			return err
		}
		if err := delta.ApplyScan(si, p); err != nil {
			return err
		}
	}
	t.delta = delta
	// A full scan covers every allocated inode, so it may wipe the whole
	// feed — unlike Update, which must only acknowledge the inodes it
	// actually consumed. (Full scans run quiesced: initial construction
	// and the explicit Rescan escape hatch.)
	for _, img := range t.images {
		img.ClearDirty()
	}
	// The graph may change arbitrarily across a full rescan; stale
	// warm-start ranks (and the old interner's id space) are dropped.
	t.prevID, t.prevProp, t.haveWarm = nil, nil, false
	return nil
}

// RoundRefresh is one server's share of an update round.
type RoundRefresh struct {
	Server string
	// Refreshed counts inodes actually re-parsed or dropped from the
	// tracked set this round.
	Refreshed int
	// Dropped is the subset of Refreshed that were deallocations.
	Dropped int
}

// Update consumes every server's dirty-inode feed, re-parsing exactly
// the changed inodes. It returns how many inodes were refreshed.
//
// Consumption is all-or-nothing per server: every dirty inode is
// re-parsed into a staging batch first, and only a fully scanned batch
// is committed (and the server's feed cleared). A mid-feed scan error
// leaves that server's state and feed untouched — the next Update sees
// the same dirty set — while servers committed earlier in the round
// keep their refresh, and the lifetime stats count exactly what was
// committed. A deallocated inode that was never tracked contributes
// nothing and is not counted.
func (t *Tracker) Update() (int, error) {
	refreshed, _, err := t.update()
	return refreshed, err
}

func (t *Tracker) update() (int, []RoundRefresh, error) {
	refreshed, droppedTotal := 0, 0
	var perServer []RoundRefresh
	commit := func() {
		if refreshed > 0 {
			t.updates++
			t.inodesRescan += int64(refreshed)
			t.inodesDropped += int64(droppedTotal)
		}
	}
	for si, st := range t.servers {
		dirty := st.img.DirtyInodes()
		if len(dirty) == 0 {
			continue
		}
		_, sp := telemetry.StartSpan(context.Background(), "update:"+st.img.Label())
		// Stage: parse the whole feed before touching any state.
		t.batch.Reset()
		t.freed = t.freed[:0]
		for _, ino := range dirty {
			if !st.img.InodeAllocated(ino) {
				t.freed = append(t.freed, ino)
				continue
			}
			if err := t.parse(&t.batch, st.img, ino); err != nil {
				sp.End()
				commit()
				t.opt.Journal.Record("online", "feed-error",
					"server", st.img.Label(),
					"ino", fmt.Sprintf("%d", ino),
					"err", err.Error())
				return refreshed, perServer, fmt.Errorf(
					"online: %s ino %d: %w (feed left intact)", st.img.Label(), ino, err)
			}
		}
		// Commit: apply the batch, drop the freed, count what was done.
		// The intake refuses a batch whole, so an error leaves the server
		// untouched.
		if err := t.delta.ApplyScan(si, &t.batch); err != nil {
			sp.End()
			commit()
			return refreshed, perServer, err
		}
		count, dropped := len(dirty)-len(t.freed), 0
		for _, ino := range t.freed {
			// One freed before we ever saw it (created and deleted between
			// updates) has nothing to refresh and is not counted.
			if t.delta.Tracked(si, ino) {
				t.delta.Remove(si, ino)
				dropped++
			}
		}
		count += dropped
		// Acknowledge exactly the snapshot this round consumed. An inode
		// dirtied by a mutator between the DirtyInodes() call above and
		// this commit stays in the feed for the next round — ClearDirty
		// here would silently drop it (the classic lost update).
		st.img.ConsumeDirty(dirty)
		sp.End()
		if count > 0 {
			node := sp.Node()
			st.lastSpan = &node
			st.refreshed.Add(int64(count))
			st.dropped.Add(int64(dropped))
			st.rounds.Inc()
			perServer = append(perServer, RoundRefresh{
				Server: st.img.Label(), Refreshed: count, Dropped: dropped,
			})
			t.opt.Journal.Record("online", "feed-commit",
				"server", st.img.Label(),
				"refreshed", fmt.Sprintf("%d", count),
				"dropped", fmt.Sprintf("%d", dropped))
			refreshed += count
			droppedTotal += dropped
		}
	}
	commit()
	return refreshed, perServer, nil
}

// Rescan discards the incremental state of every server and re-sweeps
// from the images (the periodic full-scrub escape hatch for silent
// corruption the change feed cannot see). Warm-start ranks are dropped
// with it — the next check starts cold, as trust in the old snapshot is
// exactly what a rescan revokes. A rescan that fails changes nothing:
// the snapshot, the warm state, the feeds and Stats are as before it.
func (t *Tracker) Rescan() error {
	if err := t.fullScan(); err != nil {
		return err
	}
	t.rescans++
	t.opt.Journal.Record("online", "rescan")
	return nil
}

// Partials materialises the maintained per-server partial graphs in
// deterministic (inode) order — content-identical to a full offline
// scan of the current images.
func (t *Tracker) Partials() []*scanner.Partial {
	out := make([]*scanner.Partial, 0, len(t.servers))
	for si := range t.servers {
		out = append(out, t.delta.ServerPartial(si))
	}
	return out
}

// CheckResult extends the checker result with the incremental timings.
// The three stage timings cover the round: TUpdate the change feed, the
// embedded TGraph materialise + warm-vector lift + CSR build (as the
// cold path's covers merge + build), TRank ranking + classification +
// the warm-state save.
//
// Lifetime: the tracker keeps one working set and every round rewrites
// it, so Unified, Graph and Rank — and every slice read from them — are
// valid only until the tracker's next Check or Rescan, which may
// overwrite them in place. Everything else is the round's own and stays
// valid: Findings, Report, Stats, the timings, Phases, Metrics, Journal,
// Cluster and PerServer. A caller that needs a round's graph or ranks
// after the next round copies them first.
type CheckResult struct {
	*checker.Result
	// TUpdate is the time spent consuming the change feed (replaces the
	// offline T_scan).
	TUpdate time.Duration
	// InodesRefreshed is how many inodes this check re-parsed.
	InodesRefreshed int
	// PerServer breaks the refresh down by server for this round.
	PerServer []RoundRefresh
	// Round is this check's sequence number (1 = the first check).
	Round int64
	// Warm reports whether ranking was seeded from the previous check;
	// false on a round that skipped its rank (core.Result.Skipped).
	Warm bool
}

// Check consumes pending changes and runs the analysis stages on the
// maintained snapshot — the online equivalent of checker.Run, without
// any unmount or full rescan. The unified graph comes from the
// incremental aggregator and ranking warm-starts from the previous
// check, so the cost after a small delta is the delta's re-parse plus
// the CSR build and a handful of iterations.
//
// A round writes into the working set the previous round used — the
// Materialized graph, the CSR, the rank vectors and the kernel's arrays
// — so a steady-state round allocates in proportion to its delta, not
// to the graph. That overwrites the previous CheckResult's Unified,
// Graph and Rank (see CheckResult); its findings and counters stay.
func (t *Tracker) Check() (*CheckResult, error) {
	t0 := time.Now()
	refreshed, perServer, err := t.update()
	if err != nil {
		return nil, err
	}
	update := time.Since(t0)

	// TGraph of an online round is materialise + lift + CSR build, as the
	// cold path's covers merge + build: tGraph and tRank collect what
	// AnalyzeUnified does not time itself.
	t1 := time.Now()
	mat := t.delta.Materialize()
	opt := t.opt
	warm := t.haveWarm
	if warm {
		t.liftID = liftWarm(t.liftID, t.prevID, mat)
		t.liftProp = liftWarm(t.liftProp, t.prevProp, mat)
	}
	tGraph := time.Since(t1)
	var tRank time.Duration
	res := &checker.Result{}
	if t.last != nil {
		*res = *t.last // hand the storage on; AnalyzeUnified rewrites every field
	}
	redo := !warm // a cold analysis is still to run
	if warm {
		// The warm attempt gets a bounded iteration budget. On most
		// deltas the previous fixed point is a few steps from the new
		// one and the attempt converges almost immediately; but on
		// hub-heavy graphs a warm seed can resume the slow hub-
		// equilibration creep that a cold run's loose stopping rule
		// truncates early, crawling for the full iteration cap. If the
		// budget runs out unconverged, abandon the seed and redo the
		// round cold — warm checks then never cost more than a small
		// multiple of a cold one, and always converge when cold would.
		wopt := opt
		wopt.Core.InitialID, wopt.Core.InitialProp = t.liftID, t.liftProp
		wopt.Core.MaxIterations = warmIterCap(t.lastIters, opt.Core.MaxIterations)
		// The frontier seeds are the vertices whose cached contribution
		// changed since the ranks we are warm-starting from, so the warm
		// attempt runs the O(delta) incremental kernel instead of full
		// sweeps over the whole graph.
		wopt.RankIncremental = true
		wopt.RankFrontier = mat.DirtySeeds
		if err := checker.AnalyzeUnified(res, t.images, mat.U, wopt); err != nil {
			return nil, err
		}
		switch {
		case res.Rank.Skipped:
			// Nothing to judge, so the seed went unused: a cold analysis
			// would skip the same way, and this is no fallback.
			warm = false
		case !res.Rank.Converged:
			// The abandoned attempt's time stays on the round's books; the
			// cold redo analyses into its storage.
			tGraph += res.TGraph
			tRank += res.TRank
			warm, redo = false, true
			t.warmFallbacks++
			t.opt.Journal.Record("online", "warm-fallback",
				"round", fmt.Sprintf("%d", t.checks+1))
		}
	}
	if redo {
		if err := checker.AnalyzeUnified(res, t.images, mat.U, opt); err != nil {
			return nil, err
		}
	}
	res.TScan = update // stage-1 role in the online pipeline
	res.Cluster = t.clusterManifest()
	switch {
	case res.Rank.Skipped:
		// No ranks this round (a skipped result holds the cold seed, not
		// a fixed point): the warm state and the dirty seeds are both
		// relative to ranks the graph has since moved away from, so the
		// next round that ranks runs cold, and the seeds — which
		// Materialize sorts and copies every round — stop accumulating.
		t.haveWarm = false
		t.delta.ResetDirty()
	case res.Rank.Converged:
		// Only a converged fixed point is worth warm-starting from;
		// persisting a truncated trajectory used to poison every later
		// check's seed. The dirty set resets with the save — seeds always
		// mean "changed since the ranks we warm-start from", so they keep
		// accumulating across unconverged checks.
		t2 := time.Now()
		t.saveWarmState(res, mat)
		t.delta.ResetDirty()
		t.lastIters = res.Rank.Iterations
		tRank += time.Since(t2)
	}
	res.TGraph += tGraph
	res.TRank += tRank
	t.last = res
	t.checks++
	t.opt.Journal.Record("online", "round",
		"round", fmt.Sprintf("%d", t.checks),
		"refreshed", fmt.Sprintf("%d", refreshed),
		"warm", fmt.Sprintf("%t", warm),
		"findings", fmt.Sprintf("%d", len(res.Findings)))
	return &CheckResult{
		Result:          res,
		TUpdate:         update,
		InodesRefreshed: refreshed,
		PerServer:       perServer,
		Round:           t.checks,
		Warm:            warm,
	}, nil
}

// liftWarm lifts IID-indexed ranks into the current check's GID space,
// reusing buf; vertices first seen this check start at the uniform 1.0.
func liftWarm(buf, prev []float64, mat *agg.Materialized) []float64 {
	out := slices.Grow(buf[:0], len(mat.IIDOfGID))[:len(mat.IIDOfGID)]
	for g, iid := range mat.IIDOfGID {
		if int(iid) < len(prev) {
			out[g] = prev[iid]
		} else {
			out[g] = 1
		}
	}
	return out
}

// saveWarmState stores the converged ranks keyed by stable IID for the
// next check's warm start, in place: the vectors grow to the interner's
// size, and every IID this check did not rank — new and unreferenced, or
// dead — reads the uniform 1.0.
func (t *Tracker) saveWarmState(res *checker.Result, mat *agg.Materialized) {
	id := slices.Grow(t.prevID[:0], mat.NumIIDs)[:mat.NumIIDs]
	prop := slices.Grow(t.prevProp[:0], mat.NumIIDs)[:mat.NumIIDs]
	for i := range id {
		id[i], prop[i] = 1, 1
	}
	for g, iid := range mat.IIDOfGID {
		id[iid] = res.Rank.IDRank[g]
		prop[iid] = res.Rank.PropRank[g]
	}
	t.prevID, t.prevProp, t.haveWarm = id, prop, true
}

// clusterManifest assembles the per-server telemetry sections — the
// online counterpart of an offline check's. Each server's section
// carries its lifetime refresh counters and the span of its last
// non-empty update round.
func (t *Tracker) clusterManifest() *checker.ClusterManifest {
	labels := make([]string, len(t.images))
	sections := make([]checker.ServerTelemetry, len(t.servers))
	for i, st := range t.servers {
		label := st.img.Label()
		labels[i] = label
		sections[i] = checker.ServerTelemetry{
			Server:   label,
			Snapshot: st.reg.Snapshot().Labeled(label),
			Span:     st.lastSpan,
		}
	}
	return checker.BuildClusterManifest(labels, sections)
}

// TrackerStats is the tracker's exported lifetime accounting — what a
// serving layer reports without reverse-engineering counters out of
// manifests. All fields count committed work only: a round whose feed
// consumption failed mid-server contributes exactly the servers it
// committed.
type TrackerStats struct {
	// Checks counts completed Check calls (the round sequence number of
	// the most recent CheckResult).
	Checks int64 `json:"checks"`
	// UpdateRounds counts update rounds that refreshed at least one
	// inode; idle rounds over an empty feed are not updates.
	UpdateRounds int64 `json:"update_rounds"`
	// InodesRescanned is the total inodes re-parsed or dropped by
	// committed rounds; InodesDropped is the subset that were
	// deallocations.
	InodesRescanned int64 `json:"inodes_rescanned"`
	InodesDropped   int64 `json:"inodes_dropped"`
	// WarmFallbacks counts warm ranking attempts abandoned for a cold
	// redo after exhausting their iteration budget unconverged.
	WarmFallbacks int64 `json:"warm_fallbacks"`
	// Rescans counts completed full re-sweeps (Tracker.Rescan) — the
	// periodic scrub cycles for silent corruption.
	Rescans int64 `json:"rescans"`
	// LastConvergedIters is the most recent converged check's iteration
	// count (0 until a check converges).
	LastConvergedIters int `json:"last_converged_iters"`
}

// Stats reports the tracker's lifetime work.
func (t *Tracker) Stats() TrackerStats {
	return TrackerStats{
		Checks:             t.checks,
		UpdateRounds:       t.updates,
		InodesRescanned:    t.inodesRescan,
		InodesDropped:      t.inodesDropped,
		WarmFallbacks:      t.warmFallbacks,
		Rescans:            t.rescans,
		LastConvergedIters: t.lastIters,
	}
}

// InjectScanFault wraps the tracker's scan seams with f: every scan
// attempt f elects to fail returns inject.ErrScanInjected instead of
// records, exactly as a real read error would. A round makes one attempt
// per dirty inode it re-parses, exercising the all-or-nothing feed
// consumption; a rescan makes one per image it sweeps, exercising the
// all-or-nothing rescan. The test and soak hook; wraps compose, and the
// faulted seams survive across rounds.
func (t *Tracker) InjectScanFault(f *inject.ScanFault) {
	sweep, parse := t.sweep, t.parse
	t.sweep = func(img *ldiskfs.Image, workers int) (*scanner.Partial, error) {
		if f.Tick() {
			return nil, fmt.Errorf("%s: %w", img.Label(), inject.ErrScanInjected)
		}
		return sweep(img, workers)
	}
	t.parse = func(p *scanner.Partial, img *ldiskfs.Image, ino ldiskfs.Ino) error {
		if f.Tick() {
			return fmt.Errorf("%s ino %d: %w", img.Label(), ino, inject.ErrScanInjected)
		}
		return parse(p, img, ino)
	}
}

// WatchOptions configures Tracker.Watch.
type WatchOptions struct {
	// Interval between rounds (<= 0 = one second).
	Interval time.Duration
	// Rounds bounds the loop (<= 0 = until ctx is done).
	Rounds int
	// Quiesce, when non-nil, is held while a round reads the images —
	// the synchronisation point with a live mutator. The simulation's
	// in-process mutators take the same lock; a real deployment would
	// read a quiesced snapshot per round instead.
	Quiesce sync.Locker
	// OnRound observes each completed round.
	OnRound func(round int, res *CheckResult)
	// Gate, when non-nil, is acquired before each round's check and
	// released right after it — the seam a multi-tracker daemon uses to
	// bound how many trackers run rounds concurrently on one shared
	// worker pool. Gate must return the release function, or an error
	// to stop the watch (a cancelled gate context reports ctx.Err()).
	Gate func(ctx context.Context) (release func(), err error)
	// OnError, when non-nil, observes a failed round instead of ending
	// the watch. Returning nil resumes watching at the next tick — a
	// mid-feed scan error leaves the failing server's feed intact, so
	// the next round retries exactly the lost work; returning a non-nil
	// error stops the watch with that error. Nil OnError keeps the
	// original behaviour: the first failed round ends the watch.
	OnError func(round int, err error) error
}

// Watch loops Update→Check at an interval: the `faultyrank -online
// -watch` mode. The first round runs immediately — a watcher that sits
// on the ticker for a full interval before looking at anything leaves
// the window between start and first check unwatched for no reason —
// and subsequent rounds follow the ticker. It returns on ctx
// cancellation (with ctx's error), when the configured number of rounds
// completes, or on the first check error.
func (t *Tracker) Watch(ctx context.Context, opt WatchOptions) error {
	interval := opt.Interval
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for round := 1; opt.Rounds <= 0 || round <= opt.Rounds; round++ {
		if round > 1 {
			select {
			case <-ctx.Done():
			case <-ticker.C:
			}
		}
		// Cancellation always wins: with a tick already pending, the
		// select above picks a ready case at random, and the first round
		// must honour a cancellation that predates the loop.
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := t.gatedCheck(ctx, opt)
		if err != nil {
			if ctx.Err() != nil {
				// The watch is being shut down; a round that died with it
				// (cancelled gate wait, aborted check) is not a retryable
				// round error.
				return ctx.Err()
			}
			if opt.OnError == nil {
				return err
			}
			if stop := opt.OnError(round, err); stop != nil {
				return stop
			}
			continue
		}
		if opt.OnRound != nil {
			opt.OnRound(round, res)
		}
	}
	return nil
}

// gatedCheck runs one round under the watch's gate (when configured):
// acquire a pool slot, check quiesced, release. A gate wait that dies
// with the watch context ends the watch (the ctx check in the loop);
// other gate errors flow through OnError like any round error.
func (t *Tracker) gatedCheck(ctx context.Context, opt WatchOptions) (*CheckResult, error) {
	if opt.Gate == nil {
		return t.checkQuiesced(opt.Quiesce)
	}
	release, err := opt.Gate(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return t.checkQuiesced(opt.Quiesce)
}

func (t *Tracker) checkQuiesced(lock sync.Locker) (*CheckResult, error) {
	if lock != nil {
		lock.Lock()
		defer lock.Unlock()
	}
	return t.Check()
}
