package core

import (
	"faultyrank/internal/graph"
	"faultyrank/internal/par"
)

// kernel is the one phase-A/B gather of Alg. 1. Run, RunIncremental and
// RunPartition differ only in which rows they sweep, which column space
// the rows index, and where the redistributed sink mass comes from; the
// per-vertex equation and its float operation order live here and
// nowhere else.
//
// The row slices alias the storage of a whole graph.Bidirected or of one
// graph.SubGraph — nothing is copied. Columns are vertex IDs for the
// whole graph and locals-then-ghosts for a shard; invOut and invW are
// indexed by column.
type kernel struct {
	revOff    []int64
	revCol    []uint32
	fwdOff    []int64
	fwdCol    []uint32
	fwdPaired []uint8

	// invOut[c] = 1/outdeg_G(c), 0 for sinks: the phase-A divisor.
	// invW[c] = 1/W(c) with W the in-weight (Options.inWeight), 0 when c
	// has none (a reversed-graph sink): the phase-B divisor.
	invOut []float64
	invW   []float64

	sigma, blend   float64 // Smoothing and 1-Smoothing
	unpairedWeight float64
	workers        int
}

// graphKernel views the whole graph; the out-degrees come straight from
// the forward offsets.
func graphKernel(b *graph.Bidirected, opt Options) *kernel {
	k := &kernel{
		revOff: b.Rev.Offsets, revCol: b.Rev.Targets,
		fwdOff: b.Fwd.Offsets, fwdCol: b.Fwd.Targets, fwdPaired: b.FwdPaired,
	}
	off := b.Fwd.Offsets
	k.setDivisors(b.N(), func(c int) int64 { return off[c+1] - off[c] }, b.PairedIn, b.UnpairedIn, opt)
	return k
}

// shardKernel views one partition's local rows over its locals+ghosts
// column space; ghost columns have no rows, so the degrees come from the
// replicated per-column metadata.
func shardKernel(sub *graph.SubGraph, opt Options) *kernel {
	k := &kernel{
		revOff: sub.RevOff, revCol: sub.RevCol,
		fwdOff: sub.FwdOff, fwdCol: sub.FwdCol, fwdPaired: sub.FwdPaired,
	}
	k.setDivisors(sub.NCols(), func(c int) int64 { return int64(sub.OutDeg[c]) }, sub.PairedIn, sub.UnpairedIn, opt)
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

func (k *kernel) setDivisors(nCols int, outDeg func(col int) int64, pairedIn, unpairedIn []int32, opt Options) {
	k.sigma, k.blend = opt.Smoothing, 1-opt.Smoothing
	k.unpairedWeight = opt.UnpairedWeight
	k.workers = opt.workers()
	k.invOut = make([]float64, nCols)
	k.invW = make([]float64, nCols)
	inverse := func(x float64) float64 {
		if x > 0 {
			return 1 / x
		}
		return 0
	}
	par.ForRange(nCols, k.workers, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			k.invOut[c] = inverse(float64(outDeg(c)))
			k.invW[c] = inverse(opt.inWeight(pairedIn[c], unpairedIn[c]))
		}
	})
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

// at returns the i'th row of the set.
func (r rowSet) at(i int) uint32 {
	if r.dense {
		return uint32(i)
	}
	return r.list[i]
}

// phaseA evaluates the ID-rank equation for every row v of rows:
//
//	next[v] = σ·cur[v] + (1-σ)·(base + Σ_{c→v∈G} src[c]·invOut[c])
//
// a pull-style gather over v's in-neighbours via the reversed CSR, src
// being the property ranks. Under SinkToOthers (perSink != 0) a sink
// does not credit itself. The float operation order is the contract the
// bit-identity tests hold: accumulate from base in row order, subtract
// the self share, then blend. next must not alias src; writes touch
// only the swept rows.
func (k *kernel) phaseA(rows rowSet, src, cur, next []float64, base, perSink float64) {
	off, col, inv := k.revOff, k.revCol, k.invOut
	sigma, blend := k.sigma, k.blend
	par.ForRange(rows.n, k.workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := rows.at(i)
			acc := base
			for _, c := range col[off[v]:off[v+1]] {
				acc += src[c] * inv[c]
			}
			if perSink != 0 && inv[v] == 0 {
				acc -= src[v] * perSink
			}
			next[v] = sigma*cur[v] + blend*acc
		}
	})
}

// phaseB evaluates the property-rank equation for every row v of rows:
//
//	next[v] = σ·cur[v] + (1-σ)·(base + Σ_{v→c∈G} src[c]·w(v→c)·invW[c])
//
// v's in-neighbours in Gᵣ are its out-neighbours in G, so the gather
// walks the forward CSR; w is 1 for a paired edge and UnpairedWeight
// otherwise, src the ID ranks phase A just produced. Same contract as
// phaseA.
func (k *kernel) phaseB(rows rowSet, src, cur, next []float64, base, perSink float64) {
	off, col, paired, inv := k.fwdOff, k.fwdCol, k.fwdPaired, k.invW
	sigma, blend, unpaired := k.sigma, k.blend, k.unpairedWeight
	par.ForRange(rows.n, k.workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := rows.at(i)
			acc := base
			for e := off[v]; e < off[v+1]; e++ {
				c := col[e]
				w := unpaired
				if paired[e] == 1 {
					w = 1
				}
				acc += src[c] * w * inv[c]
			}
			if perSink != 0 && inv[v] == 0 {
				acc -= src[v] * perSink
			}
			next[v] = sigma*cur[v] + blend*acc
		}
	})
}
