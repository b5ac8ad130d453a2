package core

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"faultyrank/internal/graph"
)

// kernel is the one phase-A/B gather of Alg. 1. Run, RunIncremental and
// RunPartition differ only in which rows they sweep, which column space
// the rows index, and where the redistributed sink mass comes from; the
// per-vertex equation, its float operation order and the rank state it
// updates live here and nowhere else.
//
// The row slices alias the storage of a whole graph.Bidirected or of one
// graph.SubGraph — nothing is copied. Columns are vertex IDs for the
// whole graph and locals-then-ghosts for a shard; the rows are the first
// len(id) columns.
//
// An iteration is two sweeps, each one fan-out and one join. A gather
// reads only a premultiplied vector — sProp[c] = prop[c]·invOut(c) in
// phase A, sID[c] = id[c]·invW[c] in phase B — so it costs one random
// load per edge, and because no gather reads id or prop, each phase
// rewrites its rank vector in place. The invariant is that whoever
// writes a rank entry writes its scaled twin in the same breath: scale
// for the seeds, phase A for id, phase B for prop, RunPartition for the
// ghost columns it receives.
//
// A sweep is cut into sinkBlock-wide blocks handed to the workers from
// an atomic counter. Every output is per row or per block — the row's
// rank and scaled entries, its moved mark, the block's max |Δ| and, on
// dense sweeps, the block's canonical sink partial for the *next* phase
// — so no bit depends on which worker ran a block or in what order.
//
// The workers are the calling goroutine and a team of helpers that lives
// as long as the kernel: a kernel is made with its team running, and
// whoever makes one defers stop.
type kernel struct {
	revOff    []int64
	revCol    []uint32
	fwdOff    []int64
	fwdCol    []uint32
	fwdPaired []uint8

	// invW[c] = 1/W(c) with W the in-weight (Options.inWeight), 0 when c
	// has none (a reversed-graph sink): the phase-B divisor, per column.
	// The phase-A divisor invOut(c) = inverse(outdeg_G(c)) is not stored: a
	// row's out-degree is the length of the forward row phase B has in hand.
	invW []float64

	// Rank state: id and prop per row, their scaled twins per column.
	id, prop   []float64
	sID, sProp []float64

	// Per-block outputs. partA[b] sums prop over block b's phase-A sinks
	// and partB[b] sums id over its phase-B sinks, both sequentially in
	// ascending row order — the canonical partials of sinkBlock. A dense
	// phase A emits partB, a dense phase B partA, scale both. blkMax[b] is
	// the max |Δ| of the last sweep's block b (a block of list positions
	// on a list sweep).
	partA, partB []float64
	blkMax       []float64

	// moved[v] is set when a sweep moves row v by more than theta, for
	// RunIncremental's frontier; theta is +Inf (and moved nil) elsewhere.
	theta float64
	moved []uint8

	sigma, blend float64    // Smoothing and 1-Smoothing
	weight       [2]float64 // by paired flag: UnpairedWeight, 1
	workers      int

	// The sweep in flight, read by the workers.
	block         func(k *kernel, blk int)
	rows          rowSet
	base, perSink float64
	nblk          int
	next          atomic.Int64
	team          *team // nil when one worker is enough, and after stop
}

// workspace is the storage a kernel sweeps in beyond the rank vectors —
// per column, per block, and RunIncremental's frontier bookkeeping. A
// Result keeps its run's, so a run handed that result back (Options.Reuse)
// sweeps in the same arrays instead of fresh ones. Every array is
// rewritten before it is read, except the membership flags, which are
// all false between runs: a run clears what it marked.
type workspace struct {
	invW, sID, sProp     []float64
	partA, partB, blkMax []float64
	moved                []uint8
	curA, curB           vertSet
	dirtyA, dirtyB       blkSet
}

// resized returns s at length n: in s's own storage when that is large
// enough, otherwise grown append-style, so a graph that gains a few
// vertices per round reallocates only now and then. The contents are the
// caller's to overwrite.
func resized[T any](s []T, n int) []T {
	if cap(s) == 0 {
		return make([]T, n) // nothing to reuse: exactly what a fresh build makes
	}
	return slices.Grow(s[:0], n)[:n]
}

func newKernel(nRows int, pairedIn, unpairedIn []int32, opt Options, ws *workspace) *kernel {
	nCols := len(pairedIn)
	nb := (nRows + sinkBlock - 1) / sinkBlock
	ws.invW, ws.sID, ws.sProp = resized(ws.invW, nCols), resized(ws.sID, nCols), resized(ws.sProp, nCols)
	ws.partA, ws.partB, ws.blkMax = resized(ws.partA, nb), resized(ws.partB, nb), resized(ws.blkMax, nb)
	k := &kernel{
		invW: ws.invW, sID: ws.sID, sProp: ws.sProp,
		partA: ws.partA, partB: ws.partB, blkMax: ws.blkMax,
		theta: math.Inf(1),
		sigma: opt.Smoothing, blend: 1 - opt.Smoothing,
		weight:  [2]float64{opt.UnpairedWeight, 1},
		workers: opt.workers(),
	}
	for c := range k.invW {
		k.invW[c] = inverse(opt.inWeight(pairedIn[c], unpairedIn[c]))
	}
	// One helper per worker beyond the caller that the row blocks can
	// occupy and a processor can run. A helper that shares the caller's
	// processor spins on it: Workers 4 on two processors ran metadata35k
	// in 24.5 ms, Workers 2 in 9.9 and one in 14.8 (EXPERIMENTS.md, PR 21).
	k.start(min(k.workers, nb, runtime.GOMAXPROCS(0)) - 1)
	return k
}

// graphKernel views the whole graph, sweeping in ws.
func graphKernel(b *graph.Bidirected, opt Options, ws *workspace) *kernel {
	k := newKernel(b.N(), b.PairedIn, b.UnpairedIn, opt, ws)
	k.revOff, k.revCol = b.Rev.Offsets, b.Rev.Targets
	k.fwdOff, k.fwdCol, k.fwdPaired = b.Fwd.Offsets, b.Fwd.Targets, b.FwdPaired
	return k
}

// shardKernel views one partition's local rows over its locals+ghosts
// column space; the in-weights come from the replicated per-column
// metadata.
func shardKernel(sub *graph.SubGraph, opt Options) *kernel {
	k := newKernel(sub.NLocal(), sub.PairedIn, sub.UnpairedIn, opt, &workspace{})
	k.revOff, k.revCol = sub.RevOff, sub.RevCol
	k.fwdOff, k.fwdCol, k.fwdPaired = sub.FwdOff, sub.FwdCol, sub.FwdPaired
	return k
}

// inWeight is W(v) of §III-D: the total weight of v's reversed-graph
// out-edges. The LeakyDistribution ablation divides by the raw in-degree
// instead, so unpaired edges leak (1 - UnpairedWeight) of their share.
// A vertex is a phase-B sink exactly when this is not positive.
func (o Options) inWeight(pairedIn, unpairedIn int32) float64 {
	if o.LeakyDistribution {
		return float64(pairedIn + unpairedIn)
	}
	return float64(pairedIn) + o.UnpairedWeight*float64(unpairedIn)
}

// inverse is a rank divisor: 1/x, and 0 for the sinks' x <= 0.
func inverse(x float64) float64 {
	if x > 0 {
		return 1 / x
	}
	return 0
}

// rowSet names the rows a phase evaluates: every row in [0, n) or an
// explicit list. Dense is a mode of its own rather than a nil list,
// because an empty frontier is a nil list and must evaluate nothing.
type rowSet struct {
	dense bool
	n     int
	list  []uint32
}

func allRows(n int) rowSet          { return rowSet{dense: true, n: n} }
func listRows(list []uint32) rowSet { return rowSet{n: len(list), list: list} }

// sweep runs block over every sinkBlock-wide block of rows: the caller
// and the team take block indices from the counter until it runs out. A
// sweep of a single block — every frontier iteration of a small delta —
// is the caller's alone and leaves the team where it is, spinning or
// parked.
func (k *kernel) sweep(block func(*kernel, int), rows rowSet, base, perSink float64) {
	k.block, k.rows, k.base, k.perSink = block, rows, base, perSink
	k.nblk = (rows.n + sinkBlock - 1) / sinkBlock
	k.next.Store(0)
	if k.team == nil || k.nblk <= 1 {
		k.drain()
		return
	}
	k.team.release()
	k.drain()
	k.team.join()
}

// team is the helpers of one run. A sweep is ~0.3 ms at 35 k rows and a
// run makes a hundred of them back to back, so what a helper costs per
// sweep decides whether a second core is worth having: a goroutine spawn
// plus the wake-up of the parked thread that is to run it is ≈ 70 µs.
// Resident helpers instead wait for the next sweep by spinning on a
// generation counter, and go to sleep only when none comes within
// spinBudget — while the caller is inside OnIteration, waits on a
// partition link, or walks a frontier by itself.
//
// gen and busy are the whole protocol. release sets busy to the number of
// helpers and bumps gen, which publishes the sweep's fields; every helper
// sees every generation, drains blocks and decrements busy; join returns
// at busy == 0, so the caller never rewrites the fields under a helper.
// Both sides wait in await, and whoever changes a counter calls wake.
type team struct {
	helpers int32
	gen     atomic.Int32 // sweeps released so far, the halting one included
	busy    atomic.Int32 // helpers still to finish generation gen
	halt    bool         // published by gen: helpers exit instead of draining

	mu   sync.Mutex
	cond sync.Cond // a change of gen or busy, for those asleep in await
}

// spinBudget is how long await spins before it sleeps: on the order of
// the wake-up it avoids, so waiting never costs more than twice what
// sleeping at once would have, and above a block's ≈ 60 µs, the most the
// caller and a helper finish apart. A constant, not an option: it
// trades one host latency against another and no input changes either.
const spinBudget = 100 * time.Microsecond

// spinStride is how many loads of the counter await makes per look at
// the clock.
const spinStride = 128

// start brings up a team of helpers, if any.
func (k *kernel) start(helpers int) {
	if helpers <= 0 {
		return
	}
	k.team = &team{helpers: int32(helpers)}
	k.team.cond.L = &k.team.mu
	for range helpers {
		go k.help()
	}
}

// stop halts the helpers and returns once the last of them is past its
// final use of the kernel.
func (k *kernel) stop() {
	if t := k.team; t != nil {
		t.halt = true
		t.release()
		t.join()
		k.team = nil
	}
}

func (k *kernel) help() {
	t := k.team
	for gen := int32(1); ; gen++ {
		t.await(&t.gen, gen)
		halt := t.halt
		if !halt {
			k.drain()
		}
		if t.busy.Add(-1) == 0 {
			t.wake()
		}
		if halt {
			return
		}
	}
}

func (t *team) release() {
	t.busy.Store(t.helpers)
	t.gen.Add(1)
	t.wake()
}

func (t *team) join() { t.await(&t.busy, 0) }

// await returns once v reads want, spinning for spinBudget and then
// asleep on cond.
func (t *team) await(v *atomic.Int32, want int32) {
	if v.Load() == want {
		return
	}
	deadline := time.Now().Add(spinBudget)
	for i := 1; v.Load() != want; i++ {
		if i%spinStride == 0 && time.Now().After(deadline) {
			t.mu.Lock()
			for v.Load() != want {
				t.cond.Wait()
			}
			t.mu.Unlock()
			return
		}
	}
}

// wake follows every change to gen or busy. A sleeper looks at its
// counter under the lock, so the broadcast cannot fall between that look
// and the Wait. Unconditional: skipping the lock while nobody sleeps
// measured within spread (EXPERIMENTS.md, PR 21).
func (t *team) wake() {
	t.mu.Lock()
	t.cond.Broadcast()
	t.mu.Unlock()
}

func (k *kernel) drain() {
	for {
		blk := int(k.next.Add(1)) - 1
		if blk >= k.nblk {
			return
		}
		k.block(k, blk)
	}
}

// blockSpan is block blk's half-open range of the n row positions.
func blockSpan(blk, n int) (lo, hi int) {
	lo = blk * sinkBlock
	return lo, min(lo+sinkBlock, n)
}

// seed adopts the initial rank vectors (one entry per row) and derives
// everything the first sweep reads from them.
func (k *kernel) seed(id, prop []float64) {
	k.id, k.prop = id, prop
	k.sweep((*kernel).scale, allRows(len(id)), 0, 0)
}

// scale recomputes block blk's scaled entries and both of its sink
// partials from its rank entries. It is idempotent, so RunIncremental
// also uses it to refresh the partials of blocks a list sweep rewrote.
func (k *kernel) scale(blk int) {
	lo, hi := blockSpan(blk, len(k.id))
	var pa, pb float64
	for v := lo; v < hi; v++ {
		deg := k.fwdOff[v+1] - k.fwdOff[v]
		k.sProp[v] = k.prop[v] * inverse(float64(deg))
		if deg == 0 {
			pa += k.prop[v]
		}
		k.sID[v] = k.id[v] * k.invW[v]
		if k.invW[v] == 0 {
			pb += k.id[v]
		}
	}
	k.partA[blk], k.partB[blk] = pa, pb
}

// phaseA evaluates the ID-rank equation for every row v of rows, in
// place:
//
//	id[v] = σ·id[v] + (1-σ)·(base + Σ_{c→v∈G} sProp[c])
//
// a pull-style gather over v's in-neighbours via the reversed CSR. Under
// SinkToOthers (perSink != 0) a sink does not credit itself. The float
// operation order is the contract the bit-identity tests hold: accumulate
// from base in row order, subtract the self share, then blend. It
// returns max |Δ id| over the swept rows; a dense sweep leaves the
// phase-B sink partials of the new id in partB.
func (k *kernel) phaseA(rows rowSet, base, perSink float64) float64 {
	k.sweep((*kernel).blockA, rows, base, perSink)
	var maxDelta float64
	for _, d := range k.blkMax[:k.nblk] {
		maxDelta = max(maxDelta, d)
	}
	return maxDelta
}

// gatherA adds one reversed row's premultiplied property ranks to acc, in
// row order: one random load per edge.
func gatherA(acc float64, col []uint32, src []float64) float64 {
	for _, c := range col {
		acc += src[c]
	}
	return acc
}

// gatherB adds one forward row's premultiplied ID ranks, each times its
// edge's weight (indexed by the paired flag), to acc in row order.
func gatherB(acc float64, col []uint32, paired []uint8, src []float64, weight *[2]float64) float64 {
	paired = paired[:len(col)]
	for i, c := range col {
		acc += float64(src[c] * weight[paired[i]&1])
	}
	return acc
}

func (k *kernel) blockA(blk int) {
	lo, hi := blockSpan(blk, k.rows.n)
	off, col, src := k.revOff, k.revCol, k.sProp
	id, sID, invW, prop, fwdOff, moved := k.id, k.sID, k.invW, k.prop, k.fwdOff, k.moved
	base, perSink, sigma, blend, theta := k.base, k.perSink, k.sigma, k.blend, k.theta
	track := moved != nil // a frontier to feed: RunIncremental's sweeps only
	var part, maxD float64
	if k.rows.dense {
		for v := lo; v < hi; v++ {
			acc := gatherA(base, col[off[v]:off[v+1]], src)
			if perSink != 0 && fwdOff[v] == fwdOff[v+1] {
				acc -= prop[v] * perSink
			}
			x := sigma*id[v] + blend*acc
			d := math.Abs(x - id[v])
			if d > maxD {
				maxD = d
			}
			if track && d > theta {
				moved[v] = 1
			}
			id[v] = x
			sID[v] = x * invW[v]
			if invW[v] == 0 {
				part += x
			}
		}
		k.partB[blk] = part
	} else {
		for _, v := range k.rows.list[lo:hi] {
			acc := gatherA(base, col[off[v]:off[v+1]], src)
			if perSink != 0 && fwdOff[v] == fwdOff[v+1] {
				acc -= prop[v] * perSink
			}
			x := sigma*id[v] + blend*acc
			d := math.Abs(x - id[v])
			if d > maxD {
				maxD = d
			}
			if d > theta {
				moved[v] = 1
			}
			id[v] = x
			sID[v] = x * invW[v]
		}
	}
	k.blkMax[blk] = maxD
}

// phaseB evaluates the property-rank equation for every row v of rows,
// in place:
//
//	prop[v] = σ·prop[v] + (1-σ)·(base + Σ_{v→c∈G} sID[c]·w(v→c))
//
// v's in-neighbours in Gᵣ are its out-neighbours in G, so the gather
// walks the forward CSR; w is 1 for a paired edge and UnpairedWeight
// otherwise, and the product is (id·invW)·w in that order. Same contract
// as phaseA; a dense sweep leaves the phase-A sink partials of the new
// prop in partA.
func (k *kernel) phaseB(rows rowSet, base, perSink float64) {
	k.sweep((*kernel).blockB, rows, base, perSink)
}

func (k *kernel) blockB(blk int) {
	lo, hi := blockSpan(blk, k.rows.n)
	off, col, paired, src := k.fwdOff, k.fwdCol, k.fwdPaired, k.sID
	id, prop, sProp, invW, moved := k.id, k.prop, k.sProp, k.invW, k.moved
	base, perSink, sigma, blend, theta, weight := k.base, k.perSink, k.sigma, k.blend, k.theta, k.weight
	track := moved != nil
	var part float64
	if k.rows.dense {
		for v := lo; v < hi; v++ {
			s, e := off[v], off[v+1]
			acc := gatherB(base, col[s:e], paired[s:e], src, &weight)
			if perSink != 0 && invW[v] == 0 {
				acc -= id[v] * perSink
			}
			x := sigma*prop[v] + blend*acc
			if track && math.Abs(x-prop[v]) > theta {
				moved[v] = 1
			}
			prop[v] = x
			sProp[v] = x * inverse(float64(e-s))
			if e == s {
				part += x
			}
		}
		k.partA[blk] = part
	} else {
		for _, v := range k.rows.list[lo:hi] {
			s, e := off[v], off[v+1]
			acc := gatherB(base, col[s:e], paired[s:e], src, &weight)
			if perSink != 0 && invW[v] == 0 {
				acc -= id[v] * perSink
			}
			x := sigma*prop[v] + blend*acc
			if math.Abs(x-prop[v]) > theta {
				moved[v] = 1
			}
			prop[v] = x
			sProp[v] = x * inverse(float64(e-s))
		}
	}
}
