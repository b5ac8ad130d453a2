package graph

import (
	"fmt"
	"slices"
	"sort"

	"faultyrank/internal/par"
)

// CSR is a Compressed Sparse Row adjacency structure: the out-neighbours
// of vertex v occupy Targets[Offsets[v]:Offsets[v+1]], sorted ascending.
// Kinds, when non-nil, is parallel to Targets. Offsets are 64-bit so the
// structure scales past 2^31 edges (RMAT-26 at degree 32 has 2.1 G edges).
type CSR struct {
	N       int      // number of vertices
	Offsets []int64  // length N+1
	Targets []uint32 // length NumEdges
	Kinds   []EdgeKind
}

// NumEdges returns the total directed edge count.
func (c *CSR) NumEdges() int64 { return int64(len(c.Targets)) }

// Degree returns the out-degree of v.
func (c *CSR) Degree(v uint32) int {
	return int(c.Offsets[v+1] - c.Offsets[v])
}

// Neighbors returns the sorted out-neighbour slice of v. The slice aliases
// the CSR's storage and must not be modified.
func (c *CSR) Neighbors(v uint32) []uint32 {
	return c.Targets[c.Offsets[v]:c.Offsets[v+1]]
}

// EdgeRange returns the [lo, hi) index range of v's edges in Targets.
func (c *CSR) EdgeRange(v uint32) (lo, hi int64) {
	return c.Offsets[v], c.Offsets[v+1]
}

// HasEdge reports whether a directed edge u->v exists, via binary search
// over u's sorted adjacency.
func (c *CSR) HasEdge(u, v uint32) bool {
	adj := c.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// Edges materialises the CSR back into an edge list (mostly for tests and
// small tooling; it allocates the full list).
func (c *CSR) Edges() []Edge {
	out := make([]Edge, 0, len(c.Targets))
	for v := 0; v < c.N; v++ {
		lo, hi := c.Offsets[v], c.Offsets[v+1]
		for i := lo; i < hi; i++ {
			e := Edge{Src: uint32(v), Dst: c.Targets[i]}
			if c.Kinds != nil {
				e.Kind = c.Kinds[i]
			}
			out = append(out, e)
		}
	}
	return out
}

// MemoryBytes estimates the heap footprint of the CSR arrays.
func (c *CSR) MemoryBytes() int64 {
	b := int64(len(c.Offsets)) * 8
	b += int64(len(c.Targets)) * 4
	b += int64(len(c.Kinds))
	return b
}

// csrCountBudget bounds the total size of the per-worker count arrays
// BuildCSR and Transpose allocate (bytes). With very large vertex counts
// the worker count is reduced so W*n*8 stays under the budget; counting
// then runs on fewer cores but never touches an atomic.
const csrCountBudget = 2 << 30

// workerCount resolves a worker request (<= 0 means par.DefaultWorkers)
// against the number of independent work items.
func workerCount(workers, items int) int {
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	return max(1, min(workers, items))
}

// csrCountWorkers picks the number of counting/scatter workers for a
// build over n vertices and m edges.
func csrCountWorkers(n, m, workers int) int {
	workers = workerCount(workers, m)
	if n > 0 {
		workers = max(1, min(workers, csrCountBudget/(8*n)))
	}
	return workers
}

// balancedCuts splits vertices [0, n) into parts contiguous ranges of
// near-equal weight and returns their parts+1 boundaries. prefix(v) is
// the weight of vertices [0, v) — an Offsets array, so the split is by
// edge count: GID order front-loads degree on both R-MAT and metadata
// graphs, and equal vertex counts would leave the first worker with
// most of the edges. A vertex is never split, so ranges may be empty.
func balancedCuts(n, parts int, prefix func(v int) int64) []int {
	cuts := make([]int, parts+1)
	total := prefix(n)
	for k := 1; k < parts; k++ {
		want := total * int64(k) / int64(parts)
		cuts[k] = sort.Search(n, func(v int) bool { return prefix(v) >= want })
	}
	cuts[parts] = n
	return cuts
}

// zeroedCounts returns size zeroed count slots, in buf's storage when it
// is large enough: NewBidirected's transpose counts in the forward
// build's W×n count/cursor array, and a Rebuild in the previous build's,
// instead of allocating its own.
func zeroedCounts(buf []int64, size int) []int64 {
	if cap(buf) == 0 {
		return make([]int64, size)
	}
	buf = resized(buf, size)
	clear(buf)
	return buf
}

// resized returns s at length n: in s's own storage when that is large
// enough, otherwise grown append-style, so a graph that gains a few
// vertices and edges per rebuild reallocates only now and then. The
// contents are the caller's to overwrite.
func resized[T any](s []T, n int) []T {
	if cap(s) == 0 {
		return make([]T, n) // nothing to reuse: exactly what a fresh build makes
	}
	return slices.Grow(s[:0], n)[:n]
}

// scatterCursors turns W private per-vertex count arrays (counts[w*n+v],
// worker w's edges landing in row v) into row offsets and private scatter
// cursors, and returns the edge total: offsets[v] becomes the start of
// row v, and counts[w*n+v] the first slot worker w writes in it —
// offsets[v] + Σ_{w'<w} counts[w'][v]. Rows therefore hold worker 0's
// edges, then worker 1's, ..., each in that worker's own walk order.
func scatterCursors(counts, offsets []int64, n, W, workers int) int64 {
	par.ForRange(n, workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			var t int64
			for w := 0; w < W; w++ {
				t += counts[w*n+v]
			}
			offsets[v] = t
		}
	})
	total := par.ExclusivePrefixSum64(offsets[:n])
	offsets[n] = total
	par.ForRange(n, workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			run := offsets[v]
			for w := 0; w < W; w++ {
				cw := counts[w*n+v]
				counts[w*n+v] = run
				run += cw
			}
		}
	})
	return total
}

// BuildCSR builds a CSR over n vertices from an edge list, in parallel
// and without write contention: each worker counts out-degrees of its
// contiguous edge range into a private count array, scatterCursors
// reduces the counts into global offsets plus a private scatter cursor
// per worker and vertex, and the scatter pass then writes disjoint slots
// — no atomics anywhere. Each vertex's adjacency is finally sorted by
// (target, kind), so the layout is independent of the worker count and
// lookups can binary-search. An edge referencing a vertex >= n panics on
// the calling goroutine, naming the lowest such edge — callers (the
// aggregator) densify IDs first.
//
// keepKinds controls whether the per-edge kind array is retained; pure
// benchmark graphs drop it to save a byte per edge.
func BuildCSR(n int, edges []Edge, keepKinds bool, workers int) *CSR {
	c := new(CSR)
	c.build(n, edges, keepKinds, workers, &buildScratch{})
	return c
}

// buildScratch is a build's working storage beyond the CSR itself: the
// W×n count/cursor array, which the forward build and the transpose
// share, and each sort worker's packed-key buffer. A Bidirected keeps it
// for its next Rebuild.
type buildScratch struct {
	counts []int64
	keys   [][]uint64
}

// build is BuildCSR writing into c's arrays and working in scratch's
// storage where it is large enough; what it used stays in scratch.
func (c *CSR) build(n int, edges []Edge, keepKinds bool, workers int, scratch *buildScratch) {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	c.N, c.Offsets = n, resized(c.Offsets, n+1)
	c.Targets = c.Targets[:0]
	if !keepKinds {
		c.Kinds = nil
	} else {
		c.Kinds = c.Kinds[:0]
	}
	m := len(edges)
	if m == 0 {
		clear(c.Offsets)
		return
	}

	// Both passes split the edge array into the same W contiguous ranges:
	// worker w owns edges [w*chunk, min((w+1)*chunk, m)).
	W := csrCountWorkers(n, m, workers)
	chunk := (m + W - 1) / W

	// Pass 1: private per-worker out-degree counts, and the range check
	// that guards the scatter. A worker goroutine must not panic (no
	// caller could recover it), so each records its first bad edge and
	// the panic is raised below, after the join.
	counts := zeroedCounts(scratch.counts, W*n)
	scratch.counts = counts
	bad := make([]int, W)
	par.ForEach(W, W, func(w int) {
		lo, hi := w*chunk, min((w+1)*chunk, m)
		cnt := counts[w*n : (w+1)*n]
		bad[w] = -1
		for i := lo; i < hi; i++ {
			src := edges[i].Src
			if int(src) >= n || int(edges[i].Dst) >= n {
				bad[w] = i
				return
			}
			cnt[src]++
		}
	})
	for _, i := range bad { // worker ranges ascend, so the first hit is the lowest
		if i >= 0 {
			panic(fmt.Sprintf("graph: edge %d (%d->%d) out of range n=%d", i, edges[i].Src, edges[i].Dst, n))
		}
	}
	total := scatterCursors(counts, c.Offsets, n, W, workers)

	// Pass 2: scatter. Worker w re-walks its edge range bumping only its
	// own cursors, so every Targets slot is written exactly once.
	c.Targets = resized(c.Targets, int(total))
	if keepKinds {
		c.Kinds = resized(c.Kinds, int(total))
	}
	par.ForEach(W, W, func(w int) {
		lo, hi := w*chunk, min((w+1)*chunk, m)
		cur := counts[w*n : (w+1)*n]
		for i := lo; i < hi; i++ {
			e := edges[i]
			at := cur[e.Src]
			cur[e.Src] = at + 1
			c.Targets[at] = e.Dst
			if keepKinds {
				c.Kinds[at] = e.Kind
			}
		}
	})

	// Pass 3: sort each adjacency, vertices split by edge count.
	parts := workerCount(workers, n)
	cuts := balancedCuts(n, parts, func(v int) int64 { return c.Offsets[v] })
	if len(scratch.keys) < parts {
		scratch.keys = append(scratch.keys, make([][]uint64, parts-len(scratch.keys))...)
	}
	par.ForEach(parts, parts, func(w int) {
		keys := scratch.keys[w]
		for v := cuts[w]; v < cuts[w+1]; v++ {
			s, e := c.Offsets[v], c.Offsets[v+1]
			if e-s < 2 {
				continue
			}
			if c.Kinds == nil {
				slices.Sort(c.Targets[s:e])
			} else {
				keys = sortTargetsKinds(c.Targets[s:e], c.Kinds[s:e], keys)
			}
		}
		scratch.keys[w] = keys
	})
}

// Transpose returns the CSR of the reversed graph: row t lists the
// sources of t's in-edges, each carrying the kind of its forward edge so
// provenance survives. It counts in-degrees straight from Targets with
// the same private counts + cursors as BuildCSR, and needs no sort:
// worker w owns the w-th contiguous source range and walks it in
// ascending order, and a row holds the workers' edges in worker order,
// so every row comes out ascending by source — and, because c's rows are
// (target, kind)-sorted, by kind among parallel edges. That is exactly
// what sorting after the scatter would produce, for any worker count.
func (c *CSR) Transpose(workers int) *CSR {
	t := new(CSR)
	c.transposeInto(t, workers, &buildScratch{})
	return t
}

// transposeInto is Transpose writing into t's arrays and counting in
// scratch's count array when it is large enough; the array it used stays
// in scratch.
func (c *CSR) transposeInto(t *CSR, workers int, scratch *buildScratch) {
	n := c.N
	t.N, t.Offsets = n, resized(t.Offsets, n+1)
	t.Targets = t.Targets[:0]
	if c.Kinds == nil {
		t.Kinds = nil
	} else {
		t.Kinds = t.Kinds[:0]
	}
	m := len(c.Targets)
	if m == 0 {
		clear(t.Offsets)
		return
	}
	W := csrCountWorkers(n, m, workers)
	cuts := balancedCuts(n, W, func(v int) int64 { return c.Offsets[v] })

	counts := zeroedCounts(scratch.counts, W*n)
	scratch.counts = counts
	par.ForEach(W, W, func(w int) {
		cnt := counts[w*n : (w+1)*n]
		for _, dst := range c.Targets[c.Offsets[cuts[w]]:c.Offsets[cuts[w+1]]] {
			cnt[dst]++
		}
	})
	total := scatterCursors(counts, t.Offsets, n, W, workers)

	t.Targets = resized(t.Targets, int(total))
	if c.Kinds != nil {
		t.Kinds = resized(t.Kinds, int(total))
	}
	par.ForEach(W, W, func(w int) {
		cur := counts[w*n : (w+1)*n]
		for v := cuts[w]; v < cuts[w+1]; v++ {
			for i := c.Offsets[v]; i < c.Offsets[v+1]; i++ {
				dst := c.Targets[i]
				at := cur[dst]
				cur[dst] = at + 1
				t.Targets[at] = uint32(v)
				if t.Kinds != nil {
					t.Kinds[at] = c.Kinds[i]
				}
			}
		}
	})
}

// insertionSortMax is the longest typed adjacency sorted by insertion.
// PFS metadata graphs have bounded fan-out, so most rows are this short.
const insertionSortMax = 32

// sortTargetsKinds sorts an adjacency by (target, kind), permuting kinds
// alongside. Long runs are sorted as packed target<<8|kind keys in the
// caller's scratch buffer, which is returned for reuse.
func sortTargetsKinds(targets []uint32, kinds []EdgeKind, keys []uint64) []uint64 {
	if len(targets) > insertionSortMax {
		keys = keys[:0]
		for i, t := range targets {
			keys = append(keys, uint64(t)<<8|uint64(kinds[i]))
		}
		slices.Sort(keys)
		for i, key := range keys {
			targets[i], kinds[i] = uint32(key>>8), EdgeKind(key)
		}
		return keys
	}
	for i := 1; i < len(targets); i++ {
		t, k := targets[i], kinds[i]
		j := i
		for ; j > 0 && (targets[j-1] > t || (targets[j-1] == t && kinds[j-1] > k)); j-- {
			targets[j], kinds[j] = targets[j-1], kinds[j-1]
		}
		targets[j], kinds[j] = t, k
	}
	return keys
}
