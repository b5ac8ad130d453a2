package graph

import (
	"sync/atomic"

	"faultyrank/internal/par"
)

// Bidirected bundles a metadata graph with its transpose plus the
// paired/unpaired status of every edge. This is the input shape of the
// FaultyRank iteration: phase A (ID ranks) pulls over Rev, phase B
// (Property ranks) pulls over Fwd with unpaired edges down-weighted.
type Bidirected struct {
	Fwd *CSR // the metadata graph G
	Rev *CSR // the transposed graph G_R

	// FwdPaired[i] is 1 when forward edge i (indexing Fwd.Targets) has a
	// reciprocal edge in G; RevPaired likewise for Rev. An edge u->v is
	// paired iff v->u exists (§II-A: every point-to should be answered
	// by a point-back).
	FwdPaired []uint8
	RevPaired []uint8

	// PairedIn/UnpairedIn count, per vertex, its paired and unpaired
	// incoming forward edges. They equal the paired/unpaired out-degree
	// in G_R, which the rank kernel needs to normalise the weighted
	// distribution (§III-D) without baking a weight constant in here.
	PairedIn   []int32
	UnpairedIn []int32

	// unpaired is the sum of UnpairedIn, totalled by the pairing join
	// that writes it.
	unpaired int64

	// scratch is the last build's working storage, kept for the next
	// Rebuild to count and sort in.
	scratch buildScratch
}

// NewBidirected builds both CSR orientations and classifies every edge as
// paired or unpaired, all in parallel: the forward CSR from the edge
// list, its transpose by counting, and the pairing by one merge-join per
// vertex — each edge is touched a constant number of times. The
// transpose counts in the forward build's count array. It is Rebuild on
// a zero Bidirected.
func NewBidirected(n int, edges []Edge, workers int) *Bidirected {
	b := new(Bidirected)
	b.Rebuild(n, edges, true, workers)
	return b
}

// NewBidirectedUntyped is NewBidirected for kind-less benchmark graphs;
// it skips the per-edge kind arrays (one byte per edge per orientation).
func NewBidirectedUntyped(n int, edges []Edge, workers int) *Bidirected {
	b := new(Bidirected)
	b.Rebuild(n, edges, false, workers)
	return b
}

// Rebuild makes b the bidirected graph of edges over n vertices — what
// NewBidirected (keepKinds) or NewBidirectedUntyped returns, field for
// field — writing into the arrays b already holds, count scratch
// included. An array too small for the new graph grows append-style, so
// a graph rebuilt every round as it gains a few vertices and edges
// reallocates only now and then; one with room allocates no array at
// all. Whatever b held before is overwritten: every slice read from it
// earlier now views the new graph, or storage it no longer uses.
func (b *Bidirected) Rebuild(n int, edges []Edge, keepKinds bool, workers int) {
	if b.Fwd == nil {
		b.Fwd, b.Rev = new(CSR), new(CSR)
	}
	fwd, rev := b.Fwd, b.Rev
	fwd.build(n, edges, keepKinds, workers, &b.scratch)
	fwd.transposeInto(rev, workers, &b.scratch)
	m := int(fwd.NumEdges())
	// The join below marks paired edges only: flags from an earlier build
	// are cleared first, fresh ones are zero already.
	reused := cap(b.FwdPaired) > 0
	b.FwdPaired, b.RevPaired = resized(b.FwdPaired, m), resized(b.RevPaired, m)
	if reused {
		clear(b.FwdPaired)
		clear(b.RevPaired)
	}
	b.PairedIn = resized(b.PairedIn, n)
	b.UnpairedIn = resized(b.UnpairedIn, n)
	// v->t is paired iff t->v exists, i.e. iff t is also a source of one
	// of v's in-edges; s->v is paired iff s is also one of v's targets.
	// Both rows are sorted, so one merge-join of Fwd.Neighbors(v) against
	// Rev.Neighbors(v) marks every run of equal IDs on both sides and
	// counts v's paired in-edges. Vertices are split by the edges the
	// join walks; each vertex writes only its own rows and counters, and
	// each worker totals its vertices' unpaired in-edges.
	parts := workerCount(workers, n)
	cuts := balancedCuts(n, parts, func(v int) int64 { return fwd.Offsets[v] + rev.Offsets[v] })
	var unpaired atomic.Int64
	par.ForEach(parts, parts, func(w int) {
		var sum int64
		for v := cuts[w]; v < cuts[w+1]; v++ {
			fs, fe := fwd.Offsets[v], fwd.Offsets[v+1]
			rs, re := rev.Offsets[v], rev.Offsets[v+1]
			out, in := fwd.Targets[fs:fe], rev.Targets[rs:re]
			outPaired, inPaired := b.FwdPaired[fs:fe], b.RevPaired[rs:re]
			var paired int32
			for i, j := 0, 0; i < len(out) && j < len(in); {
				id := out[i]
				switch {
				case id < in[j]:
					i++
				case id > in[j]:
					j++
				default:
					for ; i < len(out) && out[i] == id; i++ {
						outPaired[i] = 1
					}
					for ; j < len(in) && in[j] == id; j++ {
						inPaired[j] = 1
						paired++
					}
				}
			}
			b.PairedIn[v] = paired
			b.UnpairedIn[v] = int32(len(in)) - paired
			sum += int64(b.UnpairedIn[v])
		}
		unpaired.Add(sum)
	})
	b.unpaired = unpaired.Load()
}

// N returns the vertex count.
func (b *Bidirected) N() int { return b.Fwd.N }

// OutDegree returns v's out-degree in G.
func (b *Bidirected) OutDegree(v uint32) int { return b.Fwd.Degree(v) }

// InDegree returns v's in-degree in G.
func (b *Bidirected) InDegree(v uint32) int { return b.Rev.Degree(v) }

// UnpairedEdges is the number of forward edges without a reciprocal
// edge, in O(1): the build totals it.
func (b *Bidirected) UnpairedEdges() int64 { return b.unpaired }

// HasUnpairedEdge reports whether v touches at least one unpaired edge in
// either direction; such vertices form the paper's S_chk candidate set.
func (b *Bidirected) HasUnpairedEdge(v uint32) bool {
	if b.UnpairedIn[v] > 0 {
		return true
	}
	s, e := b.Fwd.EdgeRange(v)
	for i := s; i < e; i++ {
		if b.FwdPaired[i] == 0 {
			return true
		}
	}
	return false
}

// UnpairedOut returns the distinct targets of v's unpaired out-edges.
func (b *Bidirected) UnpairedOut(v uint32) []uint32 {
	var out []uint32
	s, e := b.Fwd.EdgeRange(v)
	for i := s; i < e; i++ {
		if b.FwdPaired[i] == 0 {
			t := b.Fwd.Targets[i]
			if len(out) == 0 || out[len(out)-1] != t {
				out = append(out, t)
			}
		}
	}
	return out
}

// UnpairedIncoming returns the distinct sources of v's unpaired in-edges.
func (b *Bidirected) UnpairedIncoming(v uint32) []uint32 {
	var out []uint32
	s, e := b.Rev.EdgeRange(v)
	for i := s; i < e; i++ {
		if b.RevPaired[i] == 0 {
			t := b.Rev.Targets[i]
			if len(out) == 0 || out[len(out)-1] != t {
				out = append(out, t)
			}
		}
	}
	return out
}

// Stats computes summary statistics in O(N): the sinks and sources from
// the offsets, the edge totals from the build's unpaired count — every
// forward edge is exactly one vertex's in-edge, paired or not.
func (b *Bidirected) Stats(workers int) Stats {
	var sinks, sources atomic.Int64
	par.ForRange(b.N(), workers, func(lo, hi int) {
		var sk, sr int64
		for v := lo; v < hi; v++ {
			if b.Fwd.Offsets[v] == b.Fwd.Offsets[v+1] {
				sk++
			}
			if b.Rev.Offsets[v] == b.Rev.Offsets[v+1] {
				sr++
			}
		}
		sinks.Add(sk)
		sources.Add(sr)
	})
	return Stats{
		Vertices:      b.N(),
		Edges:         b.Fwd.NumEdges(),
		PairedEdges:   b.Fwd.NumEdges() - b.unpaired,
		UnpairedEdges: b.unpaired,
		Sinks:         int(sinks.Load()),
		Sources:       int(sources.Load()),
	}
}

// MemoryBytes estimates the total footprint of the bidirected structure,
// reported in the paper's Tables IV and V.
func (b *Bidirected) MemoryBytes() int64 {
	m := b.Fwd.MemoryBytes() + b.Rev.MemoryBytes()
	m += int64(len(b.FwdPaired)) + int64(len(b.RevPaired))
	m += int64(len(b.PairedIn))*4 + int64(len(b.UnpairedIn))*4
	return m
}
