package core

import (
	"math"

	"faultyrank/internal/graph"
	"faultyrank/internal/par"
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
	// Saturated reports that the frontier grew past
	// Options.FrontierSaturation·N and the run fell back to full sweeps.
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

// blkSet tracks which canonical sink blocks contain rewritten vertices
// since their cached partial was last refreshed. all short-circuits the
// bookkeeping after a full sweep.
type blkSet struct {
	in   []bool
	list []int32
	all  bool
}

func (s *blkSet) mark(blk int) {
	if !s.all && !s.in[blk] {
		s.in[blk] = true
		s.list = append(s.list, int32(blk))
	}
}

func (s *blkSet) reset() {
	for _, b := range s.list {
		s.in[b] = false
	}
	s.list = s.list[:0]
	s.all = false
}

// RunIncremental executes the FaultyRank iteration recomputing only the
// equations that can have changed: it seeds an active set from the dirty
// vertices (those whose cached contribution changed in the delta) and
// their neighbours in both orientations — every equation that reads a
// changed adjacency list, out-degree, or in-weight — then expands the
// set along dependency edges while per-vertex movement exceeds a bound
// derived from Epsilon (Options.FrontierSlack). Vertices outside the
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
// empty graph) it delegates to Run, returning a nil Frontier.
func RunIncremental(b *graph.Bidirected, opt Options, dirty []uint32) *Result {
	n := b.N()
	blend := 1 - opt.Smoothing
	if n == 0 || blend <= 0 || len(opt.InitialID) != n || len(opt.InitialProp) != n {
		return Run(b, opt)
	}
	workers := opt.workers()
	// theta is on the raw rank scale: Diffs divide by blend before the
	// Epsilon comparison, so the comparable per-write bound scales back.
	theta := opt.Epsilon * opt.frontierSlack() * blend
	satCap := n
	if f := opt.frontierSaturation(); f < 1 {
		satCap = int(f * float64(n))
	}

	res := &Result{Frontier: &FrontierStats{}}
	res.IDRank, res.PropRank = seedRanks(n, opt)
	id, prop := res.IDRank, res.PropRank
	st := res.Frontier
	k := graphKernel(b, opt)
	invOut, invW := k.invOut, k.invW

	// Cached canonical sink partials (see sinkBlockSum). partA sums prop
	// over phase-A sinks; partB sums id over phase-B sinks. dirtyA/dirtyB
	// are the blocks whose partial is stale.
	nb := (n + sinkBlock - 1) / sinkBlock
	partA := make([]float64, nb)
	partB := make([]float64, nb)
	refreshAll := func(part, rank, invDiv []float64) {
		par.ForRange(nb, workers, func(lo, hi int) {
			for blk := lo; blk < hi; blk++ {
				part[blk] = sinkBlockSum(rank, invDiv, blk)
			}
		})
	}
	refreshAll(partA, prop, invOut)
	refreshAll(partB, id, invW)
	dirtyA := &blkSet{in: make([]bool, nb)}
	dirtyB := &blkSet{in: make([]bool, nb)}
	refresh := func(part, rank, invDiv []float64, blks *blkSet) float64 {
		if blks.all {
			refreshAll(part, rank, invDiv)
		} else {
			par.ForRange(len(blks.list), workers, func(lo, hi int) {
				for k := lo; k < hi; k++ {
					blk := int(blks.list[k])
					part[blk] = sinkBlockSum(rank, invDiv, blk)
				}
			})
		}
		blks.reset()
		var sum float64
		for _, p := range part {
			sum += p
		}
		return sum
	}

	curA, curB := newVertSet(n), newVertSet(n)
	// Seed: a dirty vertex's own equations changed (its adjacency lists
	// and divisors are new), and so did every equation multiplying its
	// divisors or reading its (re)moved edges — its neighbours in either
	// orientation. Marking the full two-sided union into both phases is
	// slightly generous but always sound.
	seeded := newVertSet(n)
	for _, d := range dirty {
		if int(d) < n {
			seeded.mark(d)
		}
	}
	st.Seeds = len(seeded.list)
	for _, d := range seeded.list {
		curA.mark(d)
		curB.mark(d)
		s, e := b.Fwd.EdgeRange(d)
		for i := s; i < e; i++ {
			curA.mark(b.Fwd.Targets[i])
			curB.mark(b.Fwd.Targets[i])
		}
		s, e = b.Rev.EdgeRange(d)
		for i := s; i < e; i++ {
			curA.mark(b.Rev.Targets[i])
			curB.mark(b.Rev.Targets[i])
		}
	}

	// A phase writes its rows' new values through scratch (the kernel's
	// next vector); commit then folds them into rank in the one
	// sequential pass that walks the swept rows anyway. Entries outside
	// the swept rows are stale and never read.
	scratch := make([]float64, n)

	// commit stores the swept rows' new values, marks their sink blocks
	// stale for the *other* phase's cached partial, re-activates the
	// dependents of vertices that moved more than theta, and returns the
	// max-abs movement. dep lists the consumers of the written value:
	// after phase A (id changed) that is Rev targets — the sources of
	// edges into v, whose phase-B gathers read id[v] — and after phase B
	// (prop changed) it is Fwd targets, whose phase-A gathers read
	// prop[v]. The vertex itself is re-marked too: its own next-phase
	// equation reads the written value through the sink self-exclusion
	// terms, and cheap over-marking is always sound. Sequential by
	// design: set marking is not race-safe.
	commit := func(rows rowSet, rank []float64, dep *graph.CSR, next *vertSet, blks *blkSet) float64 {
		var maxD float64
		for i := 0; i < rows.n; i++ {
			v := rows.at(i)
			d := math.Abs(scratch[v] - rank[v])
			rank[v] = scratch[v]
			if d > maxD {
				maxD = d
			}
			blks.mark(int(v) / sinkBlock)
			if d > theta {
				next.mark(v)
				for _, u := range dep.Neighbors(v) {
					next.mark(u)
				}
			}
		}
		return maxD
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
		sinkA := refresh(partA, prop, invOut, dirtyA)
		baseA, perSinkA := sinkShares(sinkA, n, opt.SinkPolicy)
		// A shifted redistribution base moves *every* equation, not just
		// the frontier's: when it shifts materially, sweep everyone once.
		fullA := full || verify || (haveBase && math.Abs(baseA-prevBaseA) > theta)
		prevBaseA = baseA
		rowsA := st.sweep(curA, fullA, n)
		k.phaseA(rowsA, prop, id, scratch, baseA, perSinkA)
		maxDA := commit(rowsA, id, b.Rev, curB, dirtyB)
		curA.clear()
		if fullA {
			dirtyB.all = true
		}

		// ---- Phase B (Prop ranks) ----------------------------------
		sinkB := refresh(partB, id, invW, dirtyB)
		baseB, perSinkB := sinkShares(sinkB, n, opt.SinkPolicy)
		fullB := full || verify || (haveBase && math.Abs(baseB-prevBaseB) > theta)
		prevBaseB = baseB
		rowsB := st.sweep(curB, fullB, n)
		k.phaseB(rowsB, id, prop, scratch, baseB, perSinkB)
		commit(rowsB, prop, b.Fwd, curA, dirtyA)
		curB.clear()
		if fullB {
			dirtyA.all = true
		}
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
