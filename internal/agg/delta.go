package agg

import (
	"fmt"
	"sort"

	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
)

// DeltaBuilder maintains the unified metadata graph incrementally: the
// online checker (package online) feeds it one inode's scan result at a
// time — Apply for a changed inode, Remove for a freed one — and each
// check materialises a Unified without re-interning or re-merging the
// unchanged majority. Where the batch Builder re-consumes every
// server's full chunk stream per run, the DeltaBuilder's per-check cost
// is O(delta) map work plus O(N+E) array passes (the same order as the
// CSR build any check needs), with no per-occurrence map lookups.
//
// Internally FIDs are interned once, persistently, onto stable internal
// ids (IIDs) that are never recycled; per-inode contributions are
// cached in IID space. Materialize densely renumbers the *live* IIDs —
// those still claimed by an object or touched by an edge — into the
// check's GID space, so dead FIDs (deleted and no longer referenced)
// leave no zombie vertices behind.
//
// The FID-space content of a materialised Unified — present FIDs,
// claim lists, types, the edge multiset and its canonical (server,
// inode, emission) order — is identical to a cold MergeWorkers over
// fresh full scans of the same images (property-tested in package
// online). Only the GID numbering differs: first appearance in the
// tracker's history rather than in the current canonical stream. Every
// consumer downstream of the merge works in FID space or is
// permutation-invariant, so findings match a cold run exactly.
type DeltaBuilder struct {
	labels  []string
	servers []*deltaServer

	// Persistent interner: FID <-> IID, append-only.
	iids *fidTable

	// dirty accumulates the IIDs whose cached contribution changed since
	// the last ResetDirty — the seed set for frontier-based incremental
	// ranking. It is cumulative on purpose: the online tracker resets it
	// only when it saves warm-start ranks (a converged check), so the
	// seeds always mean "changed since the ranks we would warm-start
	// from", even across failed or unconverged checks in between.
	dirty map[uint32]struct{}

	// claimCount is Materialize's per-IID claim counter, kept between
	// checks so a round allocates nothing for it.
	claimCount []uint32
}

// deltaServer caches one server's per-inode contributions plus a lazily
// maintained sorted iteration order: membership changes are buffered in
// added/removed and folded in at the next Materialize, keeping Apply
// O(contribution) and the re-sort O(n + delta·log delta) instead of a
// full O(n·log n) sort per check.
type deltaServer struct {
	label   string
	contrib map[ldiskfs.Ino]*inoContrib
	sorted  []ldiskfs.Ino // sorted members as of the last fold
	added   []ldiskfs.Ino // new members since, unsorted
	removed map[ldiskfs.Ino]struct{}
}

// inoContrib is one inode's cached scan result in IID space.
type inoContrib struct {
	objs   []contribObj
	edges  []contribEdge
	issues []scanner.Issue
	stats  scanner.Stats
}

// markDirty records every IID a contribution touches. Both the old and
// the new contribution of a changed inode are marked: a replaced or
// removed edge changes the equations at both of its old endpoints just
// as an added one does at its new ones.
func (b *DeltaBuilder) markDirty(c *inoContrib) {
	if c == nil {
		return
	}
	for _, o := range c.objs {
		b.dirty[o.iid] = struct{}{}
	}
	for _, e := range c.edges {
		b.dirty[e.src] = struct{}{}
		b.dirty[e.dst] = struct{}{}
	}
}

type contribObj struct {
	iid uint32
	typ ldiskfs.FileType
}

type contribEdge struct {
	src, dst uint32
	kind     graph.EdgeKind
}

// Materialized is one check's dense view plus the IID<->GID mapping the
// online checker uses to carry warm-start ranks across checks.
type Materialized struct {
	U *Unified
	// IIDOfGID maps this check's GID to the stable IID.
	IIDOfGID []uint32
	// NumIIDs is the interner size at materialisation time; IIDs >= it
	// belong to later deltas.
	NumIIDs int
	// DirtySeeds are the GIDs (ascending) of live vertices whose cached
	// contribution changed since the builder's last ResetDirty — the
	// frontier seeds for core.RunIncremental. Dirty IIDs no longer live
	// in this materialisation are omitted: a vertex that is gone has no
	// equation to reseed, and its old neighbours are themselves dirty.
	DirtySeeds []uint32
}

// NewDeltaBuilder fixes the canonical server order (MDTs first, then
// OSTs by index — the same convention as NewBuilder).
func NewDeltaBuilder(labels []string) *DeltaBuilder {
	b := &DeltaBuilder{
		labels: labels,
		iids:   newFIDTable(0),
		dirty:  make(map[uint32]struct{}),
	}
	for _, l := range labels {
		b.servers = append(b.servers, &deltaServer{
			label:   l,
			contrib: make(map[ldiskfs.Ino]*inoContrib),
			removed: make(map[ldiskfs.Ino]struct{}),
		})
	}
	return b
}

// intern resolves (or assigns) the stable IID of a FID.
func (b *DeltaBuilder) intern(f lustre.FID) uint32 {
	iid, _ := b.iids.intern(f)
	return iid
}

// Apply replaces one inode's contribution with a fresh scan result
// (scanner.ScanInode output for that inode).
func (b *DeltaBuilder) Apply(server int, ino ldiskfs.Ino, p *scanner.Partial) error {
	if server < 0 || server >= len(b.servers) {
		return fmt.Errorf("agg: delta apply for unknown server index %d", server)
	}
	s := b.servers[server]
	c := &inoContrib{issues: p.Issues, stats: p.Stats}
	for _, o := range p.Objects {
		c.objs = append(c.objs, contribObj{iid: b.intern(o.FID), typ: o.Type})
	}
	for _, e := range p.Edges {
		c.edges = append(c.edges, contribEdge{
			src: b.intern(e.Src), dst: b.intern(e.Dst), kind: e.Kind,
		})
	}
	if old, tracked := s.contrib[ino]; tracked {
		b.markDirty(old)
	} else {
		if _, wasRemoved := s.removed[ino]; wasRemoved {
			delete(s.removed, ino)
		}
		s.added = append(s.added, ino)
	}
	b.markDirty(c)
	s.contrib[ino] = c
	return nil
}

// Remove drops one inode's contribution (the tombstone for a freed
// inode). Removing an untracked inode is a no-op.
func (b *DeltaBuilder) Remove(server int, ino ldiskfs.Ino) {
	if server < 0 || server >= len(b.servers) {
		return
	}
	s := b.servers[server]
	c, tracked := s.contrib[ino]
	if !tracked {
		return
	}
	b.markDirty(c)
	delete(s.contrib, ino)
	s.removed[ino] = struct{}{}
}

// ResetDirty clears the accumulated dirty-IID set. The online tracker
// calls it exactly when it saves warm-start ranks, so the set always
// describes the delta relative to the saved ranks.
func (b *DeltaBuilder) ResetDirty() {
	clear(b.dirty)
}

// fold merges the buffered membership changes into the sorted order.
func (s *deltaServer) fold() {
	if len(s.added) == 0 && len(s.removed) == 0 {
		return
	}
	sort.Slice(s.added, func(i, j int) bool { return s.added[i] < s.added[j] })
	merged := make([]ldiskfs.Ino, 0, len(s.contrib))
	i, j := 0, 0
	for i < len(s.sorted) || j < len(s.added) {
		var ino ldiskfs.Ino
		switch {
		case i >= len(s.sorted):
			ino = s.added[j]
			j++
		case j >= len(s.added):
			ino = s.sorted[i]
			i++
		case s.added[j] < s.sorted[i]:
			ino = s.added[j]
			j++
		case s.added[j] == s.sorted[i]:
			// re-added after a removal that predates the last fold
			ino = s.sorted[i]
			i++
			j++
		default:
			ino = s.sorted[i]
			i++
		}
		if _, gone := s.removed[ino]; gone {
			continue
		}
		// A fold can see the same ino from both streams (removed then
		// re-added between folds lands in added while still in sorted).
		if n := len(merged); n > 0 && merged[n-1] == ino {
			continue
		}
		merged = append(merged, ino)
	}
	s.sorted = merged
	s.added = s.added[:0]
	clear(s.removed)
}

// Materialize renumbers the live IIDs densely and assembles the check's
// Unified in the canonical (server order, ascending inode) walk — the
// same walk a cold merge over full scans performs.
func (b *DeltaBuilder) Materialize() *Materialized {
	nIID := len(b.iids.fids)
	live := make([]bool, nIID)
	nClaims := append(b.claimCount[:0], make([]uint32, nIID)...)
	b.claimCount = nClaims
	var nEdge int
	for _, s := range b.servers {
		s.fold()
		for _, c := range s.contrib {
			for _, o := range c.objs {
				live[o.iid] = true
				nClaims[o.iid]++
			}
			for _, e := range c.edges {
				live[e.src] = true
				live[e.dst] = true
			}
			nEdge += len(c.edges)
		}
	}

	gidOf := make([]uint32, nIID)
	iidOfGID := make([]uint32, 0, nIID)
	for iid, l := range live {
		if l {
			gidOf[iid] = uint32(len(iidOfGID))
			iidOfGID = append(iidOfGID, uint32(iid))
		}
	}
	n := len(iidOfGID)

	u := &Unified{
		FIDs:    make([]lustre.FID, n),
		Present: make([]bool, n),
		Types:   make([]ldiskfs.FileType, n),
		Edges:   make([]graph.Edge, 0, nEdge),
	}
	for g, iid := range iidOfGID {
		u.FIDs[g] = b.iids.fids[iid]
		nClaims[g] = nClaims[iid] // g <= iid and ascending: compacts in place
	}
	u.Claims = claimSlots(nClaims[:n])

	// Pass 1: objects claim their FIDs; first claim in canonical order
	// fixes Present and Types, exactly as the batch merge does. Issues
	// fold in alongside, preserving the cold per-server order.
	for _, s := range b.servers {
		for _, ino := range s.sorted {
			c := s.contrib[ino]
			for _, o := range c.objs {
				g := gidOf[o.iid]
				if !u.Present[g] {
					u.Present[g] = true
					u.Types[g] = o.typ
				}
				u.Claims[g] = append(u.Claims[g], ObjectLoc{Server: s.label, Ino: ino})
			}
			for _, is := range c.issues {
				u.Issues = append(u.Issues, fmt.Sprintf("%s: %s", s.label, is))
			}
		}
	}

	// Pass 2: edges in canonical order.
	for _, s := range b.servers {
		for _, ino := range s.sorted {
			for _, e := range s.contrib[ino].edges {
				u.Edges = append(u.Edges, graph.Edge{
					Src: gidOf[e.src], Dst: gidOf[e.dst], Kind: e.kind,
				})
			}
		}
	}

	// GID lookups resolve through the persistent interner. The closure
	// snapshots live/gidOf, so lookups against this Unified stay correct
	// (and merely miss FIDs interned by later deltas) after the builder
	// moves on.
	u.gidFn = func(f lustre.FID) (uint32, bool) {
		iid, ok := b.iids.get(f)
		if !ok || int(iid) >= len(live) || !live[iid] {
			return 0, false
		}
		return gidOf[iid], true
	}

	var seeds []uint32
	for iid := range b.dirty {
		if int(iid) < len(live) && live[iid] {
			seeds = append(seeds, gidOf[iid])
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return &Materialized{U: u, IIDOfGID: iidOfGID, NumIIDs: nIID, DirtySeeds: seeds}
}

// Labels returns the canonical server order the builder was created
// with.
func (b *DeltaBuilder) Labels() []string {
	return append([]string(nil), b.labels...)
}

// Tracked reports whether the builder holds a cached contribution for
// the given server/inode — the membership test the online tracker uses
// to distinguish a refresh from a first sighting.
func (b *DeltaBuilder) Tracked(server int, ino ldiskfs.Ino) bool {
	if server < 0 || server >= len(b.servers) {
		return false
	}
	_, ok := b.servers[server].contrib[ino]
	return ok
}

// TrackedCount returns how many inodes the builder tracks for a server.
func (b *DeltaBuilder) TrackedCount(server int) int {
	if server < 0 || server >= len(b.servers) {
		return 0
	}
	return len(b.servers[server].contrib)
}

// ServerPartial reconstructs one server's merged partial graph from the
// cached contributions, in deterministic ascending-inode order —
// content-identical to concatenating fresh scanner.ScanInode results
// over the server's allocated inodes. The builder's cache is the single
// source of truth for the maintained snapshot; this is its projection
// back into scanner space (tests, Partials, downstream consumers).
func (b *DeltaBuilder) ServerPartial(server int) *scanner.Partial {
	if server < 0 || server >= len(b.servers) {
		return &scanner.Partial{}
	}
	s := b.servers[server]
	s.fold()
	out := &scanner.Partial{ServerLabel: s.label}
	for _, ino := range s.sorted {
		c := s.contrib[ino]
		for _, o := range c.objs {
			out.Objects = append(out.Objects, scanner.Object{
				FID: b.iids.fids[o.iid], Ino: ino, Type: o.typ,
			})
		}
		for _, e := range c.edges {
			out.Edges = append(out.Edges, scanner.FIDEdge{
				Src: b.iids.fids[e.src], Dst: b.iids.fids[e.dst], Kind: e.kind,
			})
		}
		out.Issues = append(out.Issues, c.issues...)
		out.Stats.InodesScanned += c.stats.InodesScanned
		out.Stats.DirentsRead += c.stats.DirentsRead
		out.Stats.EdgesEmitted += c.stats.EdgesEmitted
	}
	return out
}
