package graph

import (
	"fmt"
	"sort"

	"faultyrank/internal/par"
)

// Partitioned rank execution: the unified graph's vertex space is split
// into K hash-disjoint partitions, each of which materialises a
// SubGraph — the rows of both CSR orientations for the vertices it
// owns, with column indices rewritten into a compact local space of
// "locals" (owned vertices, ascending global GID) followed by "ghosts"
// (remote vertices its rows reference, ascending global GID). A rank
// worker then needs only its SubGraph plus, per superstep, the current
// rank values of its ghost columns — the boundary cut the BSP exchange
// ships (see internal/core/superstep.go).
//
// Row order is preserved exactly: a local row's column sequence is the
// global CSR row's target sequence, translated element by element. The
// rank kernel's gather loops are order-sensitive float sums, so this is
// what makes a partitioned sweep reproduce the single-process sweep bit
// for bit rather than merely approximately.

// SubGraph is one partition's share of a Bidirected graph.
type SubGraph struct {
	// Part is this partition's index in [0, Plan.K).
	Part int

	// Local lists the global GIDs this partition owns, ascending. Local
	// vertex l (a "row") corresponds to global vertex Local[l] and to
	// column l of the local column space.
	Local []uint32

	// Ghosts lists the remote global GIDs referenced by this
	// partition's rows, ascending. Ghost g occupies column
	// len(Local)+g.
	Ghosts []uint32

	// Rev rows (phase A gathers): the in-neighbour columns of local
	// vertex l are RevCol[RevOff[l]:RevOff[l+1]], in the exact order of
	// the global Rev CSR row.
	RevOff []int64
	RevCol []uint32

	// Fwd rows (phase B gathers), with the per-edge paired flag carried
	// alongside, again in exact global row order.
	FwdOff    []int64
	FwdCol    []uint32
	FwdPaired []uint8

	// Per-column vertex metadata, replicated for ghosts so the rank
	// divisors (invOut, invW) are computable locally for every column:
	// OutDeg is the forward out-degree, PairedIn/UnpairedIn the paired
	// and unpaired in-edge counts.
	OutDeg     []int32
	PairedIn   []int32
	UnpairedIn []int32

	// SendTo[q] lists the local column indices whose values partition q
	// needs as ghosts, ascending by global GID. It is the send schedule
	// of the boundary exchange; the matching receive schedule is q's
	// Ghosts order, so routing needs no per-value addressing.
	SendTo [][]uint32

	// CutEdges counts row entries that resolve to ghost columns, i.e.
	// the edges crossing the partition boundary (both orientations).
	CutEdges int64
}

// NLocal returns the number of owned vertices (rows).
func (s *SubGraph) NLocal() int { return len(s.Local) }

// NCols returns the size of the local column space (locals + ghosts).
func (s *SubGraph) NCols() int { return len(s.Local) + len(s.Ghosts) }

// Plan is a complete K-way partitioning of one Bidirected graph.
type Plan struct {
	K int
	N int
	// Owners[g] is the partition owning global vertex g.
	Owners []uint16
	// LocalIdx[g] is g's row index within its owner's Local slice.
	LocalIdx []uint32
	Parts    []*SubGraph
}

// CutEdges totals the boundary-crossing row entries across partitions.
func (p *Plan) CutEdges() int64 {
	var total int64
	for _, sub := range p.Parts {
		total += sub.CutEdges
	}
	return total
}

// PartitionPlan builds the K-way partition of b induced by the owners
// map (owners[g] = partition of global vertex g, each < k). Any
// assignment works — including adversarial ones, which the equivalence
// tests exploit.
func PartitionPlan(b *Bidirected, owners []uint16, k, workers int) *Plan {
	n := b.N()
	if len(owners) != n {
		panic(fmt.Sprintf("graph: owners length %d != vertex count %d", len(owners), n))
	}
	if k < 1 {
		panic("graph: partition count must be >= 1")
	}
	p := &Plan{
		K:        k,
		N:        n,
		Owners:   owners,
		LocalIdx: make([]uint32, n),
		Parts:    make([]*SubGraph, k),
	}

	// Assign rows: ascending global GID order within each partition, so
	// a partition's Local slice is sorted by construction and the
	// coordinator can scatter/gather positionally.
	counts := make([]int, k)
	for g := 0; g < n; g++ {
		o := owners[g]
		if int(o) >= k {
			panic(fmt.Sprintf("graph: owner %d of vertex %d out of range k=%d", o, g, k))
		}
		counts[o]++
	}
	for part := 0; part < k; part++ {
		p.Parts[part] = &SubGraph{
			Part:   part,
			Local:  make([]uint32, 0, counts[part]),
			SendTo: make([][]uint32, k),
		}
	}
	for g := 0; g < n; g++ {
		sub := p.Parts[owners[g]]
		p.LocalIdx[g] = uint32(len(sub.Local))
		sub.Local = append(sub.Local, uint32(g))
	}

	// Materialise each partition independently (the passes below touch
	// only that partition's arrays).
	par.ForEach(k, workers, func(part int) {
		buildSubGraph(b, p, p.Parts[part])
	})

	// Send schedules: walking each partition's ghost list in (ascending
	// global GID) order and appending to the owner's SendTo[q] yields,
	// for every owner, a schedule sorted the same way — so the exchange
	// can route by position alone.
	for q := 0; q < k; q++ {
		for _, g := range p.Parts[q].Ghosts {
			o := owners[g]
			p.Parts[o].SendTo[q] = append(p.Parts[o].SendTo[q], p.LocalIdx[g])
		}
	}
	return p
}

func buildSubGraph(b *Bidirected, p *Plan, sub *SubGraph) {
	part := uint16(sub.Part)
	nLocal := len(sub.Local)

	// Pass 1: discover ghosts — every remote GID referenced by a row of
	// either orientation.
	var refs []uint32
	for _, g := range sub.Local {
		s, e := b.Rev.EdgeRange(g)
		for i := s; i < e; i++ {
			if src := b.Rev.Targets[i]; p.Owners[src] != part {
				refs = append(refs, src)
			}
		}
		s, e = b.Fwd.EdgeRange(g)
		for i := s; i < e; i++ {
			if dst := b.Fwd.Targets[i]; p.Owners[dst] != part {
				refs = append(refs, dst)
			}
		}
	}
	sub.CutEdges = int64(len(refs))
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	ghostIdx := make(map[uint32]uint32, len(refs)/2)
	for _, g := range refs {
		if _, ok := ghostIdx[g]; !ok {
			ghostIdx[g] = uint32(nLocal + len(sub.Ghosts))
			sub.Ghosts = append(sub.Ghosts, g)
		}
	}

	colOf := func(g uint32) uint32 {
		if p.Owners[g] == part {
			return p.LocalIdx[g]
		}
		return ghostIdx[g]
	}

	// Pass 2: translate rows, preserving the global CSR row order
	// element for element (the gather sums are order-sensitive).
	var nRev, nFwd int64
	for _, g := range sub.Local {
		nRev += int64(b.Rev.Degree(g))
		nFwd += int64(b.Fwd.Degree(g))
	}
	sub.RevOff = make([]int64, nLocal+1)
	sub.RevCol = make([]uint32, 0, nRev)
	sub.FwdOff = make([]int64, nLocal+1)
	sub.FwdCol = make([]uint32, 0, nFwd)
	sub.FwdPaired = make([]uint8, 0, nFwd)
	for l, g := range sub.Local {
		s, e := b.Rev.EdgeRange(g)
		for i := s; i < e; i++ {
			sub.RevCol = append(sub.RevCol, colOf(b.Rev.Targets[i]))
		}
		sub.RevOff[l+1] = int64(len(sub.RevCol))
		s, e = b.Fwd.EdgeRange(g)
		for i := s; i < e; i++ {
			sub.FwdCol = append(sub.FwdCol, colOf(b.Fwd.Targets[i]))
			sub.FwdPaired = append(sub.FwdPaired, b.FwdPaired[i])
		}
		sub.FwdOff[l+1] = int64(len(sub.FwdCol))
	}

	// Pass 3: per-column metadata, ghosts included, so the rank
	// divisors are computable locally for every column.
	nCols := sub.NCols()
	sub.OutDeg = make([]int32, nCols)
	sub.PairedIn = make([]int32, nCols)
	sub.UnpairedIn = make([]int32, nCols)
	fill := func(col int, g uint32) {
		sub.OutDeg[col] = int32(b.Fwd.Degree(g))
		sub.PairedIn[col] = b.PairedIn[g]
		sub.UnpairedIn[col] = b.UnpairedIn[g]
	}
	for l, g := range sub.Local {
		fill(l, g)
	}
	for i, g := range sub.Ghosts {
		fill(nLocal+i, g)
	}
}
