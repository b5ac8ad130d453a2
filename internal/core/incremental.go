package core

import (
	"math"

	"faultyrank/internal/graph"
)

// FrontierStats records what RunIncremental actually recomputed — the
// evidence that a delta check paid O(frontier), not O(graph), per
// iteration. Touched is the headline number: the cold kernel would have
// touched 2·N·Iterations vertices.
type FrontierStats struct {
	// Seeds is the number of dirty vertices the frontier was seeded from.
	Seeds int `json:"seeds"`
	// FullSweeps counts full O(N) phase sweeps (a cold-equivalent
	// iteration is two). The verification sweep that confirms
	// convergence always contributes at least two.
	FullSweeps int `json:"full_sweeps"`
	// MaxActive is the largest frontier a non-full phase processed.
	MaxActive int `json:"max_active"`
	// Touched is the total number of per-vertex equation evaluations
	// across all phases of the run (full sweeps included).
	Touched int64 `json:"touched"`
	// Saturated reports that the frontier grew past a quarter of N (the
	// frontier saturation) and the run fell back to full sweeps.
	Saturated bool `json:"saturated"`
}

// sweep picks the rows of one phase — the frontier, or every row of the
// graph when full — and accounts for them.
func (st *FrontierStats) sweep(frontier *vertSet, full bool, n int) rowSet {
	rows := listRows(frontier.list)
	if full {
		rows = allRows(n)
		st.FullSweeps++
	} else if rows.n > st.MaxActive {
		st.MaxActive = rows.n
	}
	st.Touched += int64(rows.n)
	return rows
}

// vertSet is an O(1)-membership set with a dense iteration list. Marking
// is sequential; the list is consumed by parallel phase kernels (reads
// only). Order of the list never affects results: phase updates write
// disjoint vertices and the max-delta reduction is order-independent.
type vertSet struct {
	in   []bool
	list []uint32
}

func newVertSet(n int) *vertSet { return &vertSet{in: make([]bool, n)} }

func (s *vertSet) mark(v uint32) {
	if !s.in[v] {
		s.in[v] = true
		s.list = append(s.list, v)
	}
}

func (s *vertSet) clear() {
	for _, v := range s.list {
		s.in[v] = false
	}
	s.list = s.list[:0]
}

// blkSet tracks which canonical sink blocks hold rows a list sweep
// rewrote since their cached partial was last refreshed.
type blkSet struct {
	in   []bool
	list []int32
}

func (s *blkSet) mark(blk int) {
	if !s.in[blk] {
		s.in[blk] = true
		s.list = append(s.list, int32(blk))
	}
}

func (s *blkSet) reset() {
	for _, b := range s.list {
		s.in[b] = false
	}
	s.list = s.list[:0]
}

// RunIncremental executes the FaultyRank iteration recomputing only the
// equations that can have changed: it seeds an active set from the dirty
// vertices (those whose cached contribution changed in the delta) and
// their neighbours in both orientations — every equation that reads a
// changed adjacency list, out-degree, or in-weight — then expands the
// set along dependency edges while per-vertex movement exceeds a bound
// derived from Epsilon (frontierSlack). Vertices outside the
// active set keep their warm values untouched.
//
// Exactness is restored at the end: convergence is only declared after a
// full verification sweep (a bit-exact cold iteration) whose diff is
// below Epsilon, so a converged incremental result satisfies the cold
// kernel's criterion on the whole graph, not just the frontier. Sink
// mass keeps the canonical sinkBlock fold by caching per-block partials
// and recomputing exactly the blocks containing rewritten vertices —
// a whole-block sequential recompute is bit-identical to the cold
// partial, and the ascending fold is unchanged, so results stay
// deterministic for any worker count.
//
// The dirty slice holds vertex IDs (GIDs) in [0, N); out-of-range
// entries are ignored. RunIncremental needs valid warm vectors to be
// incremental against — without them (or with Smoothing >= 1, or an
// empty graph) it delegates to Run, returning a nil Frontier. So it does
// for a graph Run skips (Options.skips).
func RunIncremental(b *graph.Bidirected, opt Options, dirty []uint32) *Result {
	n := b.N()
	blend := 1 - opt.Smoothing
	if n == 0 || blend <= 0 || opt.skips(b) || len(opt.InitialID) != n || len(opt.InitialProp) != n {
		return Run(b, opt)
	}
	// theta is on the raw rank scale: Diffs divide by blend before the
	// Epsilon comparison, so the comparable per-write bound scales back.
	theta := opt.Epsilon * frontierSlack * blend
	f := opt.frontierSaturation
	if f <= 0 {
		f = defaultFrontierSaturation
	}
	satCap := n
	if f < 1 {
		satCap = int(f * float64(n))
	}

	res := opt.recycle()
	res.Frontier = &FrontierStats{}
	res.IDRank, res.PropRank = seedRanks(n, opt, res.IDRank, res.PropRank)
	st := res.Frontier
	// The run holds five n-vectors — id, prop, the kernel's sID, sProp and
	// invW — plus three n-byte arrays: the moved marks and the two
	// frontiers' membership, all in the workspace of the result it writes.
	ws := &res.work
	k := graphKernel(b, opt, ws)
	defer k.stop()
	ws.moved = resized(ws.moved, n)
	clear(ws.moved)
	k.theta, k.moved = theta, ws.moved
	k.seed(res.IDRank, res.PropRank)

	// The kernel's partA/partB double as the cached canonical sink
	// partials: a dense sweep rewrites the other phase's in full, a list
	// sweep leaves them alone and dirtyA/dirtyB collect the blocks whose
	// partial went stale, to be recomputed whole before the next fold.
	nb := len(k.partA)
	dirtyA, dirtyB := &ws.dirtyA, &ws.dirtyB
	dirtyA.in, dirtyB.in = resized(dirtyA.in, nb), resized(dirtyB.in, nb)
	curA, curB := &ws.curA, &ws.curB
	curA.in, curB.in = resized(curA.in, n), resized(curB.in, n)
	// The flags stay false between runs — the run clears what it marked —
	// so resizing them needs no clear.
	defer func() {
		curA.clear()
		curB.clear()
		dirtyA.reset()
		dirtyB.reset()
	}()
	refresh := func(part []float64, blks *blkSet) float64 {
		for _, blk := range blks.list {
			k.scale(int(blk))
		}
		blks.reset()
		return foldBlocks(part)
	}

	// Seed: a dirty vertex's own equations changed (its adjacency lists
	// and divisors are new), and so did every equation multiplying its
	// divisors or reading its (re)moved edges — its neighbours in either
	// orientation. Marking the full two-sided union into both phases is
	// slightly generous but always sound.
	for _, d := range dirty {
		if int(d) < n {
			curA.mark(d)
		}
	}
	st.Seeds = len(curA.list)
	for _, d := range curA.list[:st.Seeds] {
		curB.mark(d)
		for _, u := range b.Fwd.Neighbors(d) {
			curA.mark(u)
			curB.mark(u)
		}
		for _, u := range b.Rev.Neighbors(d) {
			curA.mark(u)
			curB.mark(u)
		}
	}

	// commit closes a sweep's books in the one sequential pass set marking
	// needs anyway: it marks the swept rows' sink blocks stale for the
	// *other* phase's cached partial (a dense sweep emitted them fresh
	// instead) and re-activates the dependents of the rows the kernel
	// marked as moved by more than theta. dep lists the consumers of the
	// written value: after phase A (id changed) that is Rev targets — the
	// sources of edges into v, whose phase-B gathers read id[v] — and
	// after phase B (prop changed) it is Fwd targets, whose phase-A
	// gathers read prop[v]. The vertex itself is re-marked too: its own
	// next-phase equation reads the written value through the sink
	// self-exclusion terms, and cheap over-marking is always sound.
	react := func(v uint32, dep *graph.CSR, next *vertSet) {
		if k.moved[v] == 0 {
			return
		}
		k.moved[v] = 0
		next.mark(v)
		for _, u := range dep.Neighbors(v) {
			next.mark(u)
		}
	}
	commit := func(rows rowSet, dep *graph.CSR, next *vertSet, blks *blkSet) {
		if rows.dense {
			blks.reset()
			for v := range k.moved {
				react(uint32(v), dep, next)
			}
			return
		}
		for _, v := range rows.list {
			blks.mark(int(v) / sinkBlock)
			react(v, dep, next)
		}
	}

	var prevBaseA, prevBaseB float64
	haveBase := false
	full := false   // saturated: full sweeps for the rest of the run
	verify := false // next iteration is the full verification sweep
	for iter := 0; iter < opt.MaxIterations; iter++ {
		if !full && (len(curA.list) > satCap || len(curB.list) > satCap) {
			full = true
			st.Saturated = true
		}

		// ---- Phase A (ID ranks) ------------------------------------
		sinkA := refresh(k.partA, dirtyA)
		baseA, perSinkA := sinkShares(sinkA, n, opt.SinkPolicy)
		// A shifted redistribution base moves *every* equation, not just
		// the frontier's: when it shifts materially, sweep everyone once.
		fullA := full || verify || (haveBase && math.Abs(baseA-prevBaseA) > theta)
		prevBaseA = baseA
		rowsA := st.sweep(curA, fullA, n)
		maxDA := k.phaseA(rowsA, baseA, perSinkA)
		commit(rowsA, b.Rev, curB, dirtyB)
		curA.clear()

		// ---- Phase B (Prop ranks) ----------------------------------
		sinkB := refresh(k.partB, dirtyB)
		baseB, perSinkB := sinkShares(sinkB, n, opt.SinkPolicy)
		fullB := full || verify || (haveBase && math.Abs(baseB-prevBaseB) > theta)
		prevBaseB = baseB
		rowsB := st.sweep(curB, fullB, n)
		k.phaseB(rowsB, baseB, perSinkB)
		commit(rowsB, b.Fwd, curA, dirtyA)
		curB.clear()
		haveBase = true

		// ---- Convergence (cold criterion on phase-A diff) ----------
		if res.recordIteration(opt, maxDA, sinkA, sinkB) {
			if fullA && fullB {
				// This iteration WAS a cold iteration over the whole
				// graph; the cold stopping criterion holds exactly.
				res.Converged = true
				break
			}
			// The frontier went quiet but vertices outside it were
			// never checked: verify with one full iteration. If that
			// sweep still moves somewhere, its propagation re-seeds
			// the frontier and the loop continues incrementally.
			verify = true
		} else {
			verify = false
		}
	}
	return res
}
