package checker

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"faultyrank/internal/agg"
	"faultyrank/internal/core"
	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

// The paper concedes (§VI) that FaultyRank cannot detect "multiple
// paired metadata that are all wrong but point to each other
// coherently": a subtree whose internal DIRENT↔LinkEA relations are
// perfectly paired, yet which no path from the root reaches — for
// example two directories corrupted into claiming each other as
// parent/child, severed from the tree. Pairing sees nothing wrong.
//
// This file extends the checker past that limitation with a namespace
// reachability pass: a BFS from the root over DIRENT edges. Present
// namespace objects (files/directories on the MDT) that the walk never
// reaches form detached islands; each island is reported and repaired by
// re-rooting it under /lost+found (breaking one internal claim edge so
// the re-rooted vertex has a single parent again).

// reachScratch is the reachability BFS's storage: the reached flags and
// the queue, which a Result keeps for the next analysis into it.
type reachScratch struct {
	reached []bool
	queue   []uint32
}

// reachability computes which vertices a DIRENT-only BFS from the root
// reaches, in sc's storage.
func reachability(u *agg_, b *graph.Bidirected, sc *reachScratch) []bool {
	reached := slices.Grow(sc.reached[:0], u.N())[:u.N()]
	clear(reached)
	sc.reached = reached
	rootGID, ok := u.GID(lustre.RootFID)
	if !ok {
		return reached // no root: everything is unreachable, pass 0 reports it
	}
	queue := append(sc.queue[:0], rootGID)
	reached[rootGID] = true
	for next := 0; next < len(queue); next++ {
		s, e := b.Fwd.EdgeRange(queue[next])
		for i := s; i < e; i++ {
			if b.Fwd.Kinds != nil && b.Fwd.Kinds[i] != graph.KindDirent {
				continue
			}
			t := b.Fwd.Targets[i]
			if !reached[t] {
				reached[t] = true
				queue = append(queue, t)
			}
		}
	}
	sc.queue = queue
	return reached
}

// agg_ abbreviates the aggregator's unified-graph type locally.
type agg_ = agg.Unified

// classifyDetachedIslands appends findings for namespace objects that
// are present and internally consistent but unreachable from the root.
// Vertices already implicated by pairing-based findings are skipped —
// their unpaired edges explain the disconnection and carry better
// repairs (e.g. rebuilding a destroyed parent directory).
func classifyDetachedIslands(res *Result, findings []Finding) []Finding {
	u := res.Unified
	b := res.Graph
	reached := reachability(u, b, &res.reach)

	implicated := make(map[lustre.FID]bool)
	for _, f := range findings {
		implicated[f.FID] = true
		for _, r := range f.Repairs {
			implicated[r.TargetFID] = true
			implicated[r.SourceFID] = true
		}
	}

	// Collect unreachable, present namespace vertices (dirs/files that
	// live on an MDT image).
	var detached []uint32
	for g := 0; g < u.N(); g++ {
		gi := uint32(g)
		if reached[gi] || !u.Present[gi] {
			continue
		}
		if u.Types[gi] != ldiskfs.TypeDir && u.Types[gi] != ldiskfs.TypeFile {
			continue
		}
		if u.ClaimCount(gi) == 0 || !strings.HasPrefix(u.Claim(gi, 0).Server, "mdt") {
			continue
		}
		if implicated[u.FID(gi)] || b.HasUnpairedEdge(gi) {
			continue // pairing-based findings already own this vertex
		}
		detached = append(detached, gi)
	}
	if len(detached) == 0 {
		return findings
	}

	// Group the detached vertices into islands (weak connectivity over
	// namespace edges restricted to the detached set) and report one
	// finding per island, anchored at its smallest-FID directory.
	islands := groupIslands(b, detached)
	for _, island := range islands {
		anchor := islandAnchor(u, island)
		f := Finding{
			Kind: DetachedNamespace, FID: u.FID(anchor),
			Detail: fmt.Sprintf(
				"island of %d namespace object(s) unreachable from the root despite consistent pairing",
				len(island)),
			Repairs: []RepairAction{{
				Op: core.RepairQuarantine, TargetFID: u.FID(anchor),
				Kind: graph.KindDirent,
			}},
		}
		// Breaking the cycle: if an island member claims the anchor via
		// DIRENT, that internal claim must be dropped when the anchor is
		// re-rooted under /lost+found.
		s, e := b.Rev.EdgeRange(anchor)
		for i := s; i < e; i++ {
			if b.Rev.Kinds != nil && b.Rev.Kinds[i] != graph.KindDirent {
				continue
			}
			src := b.Rev.Targets[i]
			f.Repairs = append(f.Repairs, RepairAction{
				Op: core.RepairDropPointer, TargetFID: u.FID(src),
				SourceFID: u.FID(anchor), Kind: graph.KindDirent,
			})
		}
		findings = append(findings, f)
	}
	sortFindings(findings)
	return findings
}

// groupIslands partitions detached vertices into weakly-connected
// groups over namespace edges.
func groupIslands(b *graph.Bidirected, detached []uint32) [][]uint32 {
	inSet := make(map[uint32]bool, len(detached))
	for _, v := range detached {
		inSet[v] = true
	}
	seen := make(map[uint32]bool, len(detached))
	var islands [][]uint32
	for _, start := range detached {
		if seen[start] {
			continue
		}
		var island []uint32
		queue := []uint32{start}
		seen[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			island = append(island, v)
			visit := func(t uint32) {
				if inSet[t] && !seen[t] {
					seen[t] = true
					queue = append(queue, t)
				}
			}
			s, e := b.Fwd.EdgeRange(v)
			for i := s; i < e; i++ {
				visit(b.Fwd.Targets[i])
			}
			s, e = b.Rev.EdgeRange(v)
			for i := s; i < e; i++ {
				visit(b.Rev.Targets[i])
			}
		}
		sort.Slice(island, func(i, j int) bool { return island[i] < island[j] })
		islands = append(islands, island)
	}
	sort.Slice(islands, func(i, j int) bool { return islands[i][0] < islands[j][0] })
	return islands
}

// islandAnchor picks the vertex to re-root: the smallest-FID directory,
// falling back to the smallest-FID member.
func islandAnchor(u *agg_, island []uint32) uint32 {
	best := island[0]
	bestIsDir := u.Types[best] == ldiskfs.TypeDir
	for _, v := range island[1:] {
		isDir := u.Types[v] == ldiskfs.TypeDir
		switch {
		case isDir && !bestIsDir:
			best, bestIsDir = v, true
		case isDir == bestIsDir && u.FID(v).Less(u.FID(best)):
			best = v
		}
	}
	return best
}
