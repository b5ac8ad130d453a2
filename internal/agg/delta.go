package agg

import (
	"cmp"
	"fmt"
	"slices"

	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
)

// DeltaBuilder maintains the unified metadata graph incrementally: the
// online checker (package online) feeds it one inode's scan result at a
// time — Apply for a changed inode, Remove for a freed one — and each
// check materialises a Unified without re-interning or re-merging the
// unchanged majority.
//
// Internally FIDs are interned once, persistently, onto stable internal
// ids (IIDs) that are never recycled, and the per-inode contributions
// are cached in IID space in flat, pointer-free arrays kept in canonical
// order: per server, the tracked inodes ascending with prefix offsets
// into one object arena and one edge arena. A changed inode is staged
// and one in-place splice per dirty server folds the staged inodes in
// at the next read. Per IID the builder maintains a reference count
// (live ⇔ non-zero) and the claim list, so Materialize is a handful of
// sequential passes — renumber the live IIDs densely into the check's
// GID space, gather the vertex arrays, translate the edge arenas — with
// no map operation and no allocation per vertex. Dead FIDs (deleted and
// no longer referenced) leave no zombie vertices behind.
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

	// Persistent interner: FID <-> IID, append-only. refs, claims and the
	// two sets' flags are indexed by IID and grow with it.
	iids *fidTable

	// refs counts, per IID, the cached objects claiming it plus the
	// cached edge endpoints naming it. Apply and Remove adjust it from
	// the old and the new contribution; an IID is live while it is
	// non-zero.
	refs []uint32
	// claims is the per-IID claim state; staleClaims holds the IIDs whose
	// claimants changed since their list was last read off the arenas.
	claims      []iidClaims
	staleClaims iidSet

	// dirty accumulates the IIDs whose cached contribution changed since
	// the last ResetDirty — the seed set for frontier-based incremental
	// ranking. It is cumulative on purpose: the online tracker resets it
	// only when it saves warm-start ranks (a converged check), so the
	// seeds always mean "changed since the ranks we would warm-start
	// from", even across failed or unconverged checks in between.
	dirty iidSet

	scratch spliceScratch

	// last is what Materialize returned last, rewritten by the next call.
	last *Materialized
}

// iidSet is a set of IIDs: a membership flag per IID, and the members as
// a list so that reading and emptying it cost its size, not the
// interner's.
type iidSet struct {
	in   []bool
	list []uint32
}

func (s *iidSet) add(iid uint32) {
	if !s.in[iid] {
		s.in[iid] = true
		s.list = append(s.list, iid)
	}
}

func (s *iidSet) reset() {
	for _, iid := range s.list {
		s.in[iid] = false
	}
	s.list = s.list[:0]
}

// iidClaims is one FID's claim state. list is what a Unified's Claims
// entry points at: it is never written again once read off the arenas —
// a change of claimants marks the IID stale and the next read carves a
// fresh list — so rounds share it until that FID's claims change.
type iidClaims struct {
	list []ObjectLoc      // canonical (server, inode, emission) order; nil while unclaimed
	n    uint32           // objects claiming the IID now: len(list) once no longer stale
	typ  ldiskfs.FileType // type of the first claim
}

// deltaServer is one server's cached contributions: the canonical arrays
// as of the last splice, plus the inodes staged since.
type deltaServer struct {
	label string

	// inodes is ascending by inode number; an inode's objects and edges
	// are the arena ranges ending at its prefix offsets and starting at
	// its predecessor's. issues, which are rare, sit in a side list in
	// the same order.
	inodes []inodeRec
	objs   []contribObj
	edges  []contribEdge
	issues []inodeIssue

	// staged holds the inodes applied (or, as nil, removed) since the
	// last splice, except those appended straight to the arrays' tail.
	// It overrides the arrays and is empty after a splice.
	staged  map[ldiskfs.Ino]*stagedInode
	tracked int
}

type inodeRec struct {
	ino             ldiskfs.Ino
	objEnd, edgeEnd uint32
	stats           scanner.Stats
}

type inodeIssue struct {
	ino   ldiskfs.Ino // the contributing inode
	issue scanner.Issue
}

// stagedInode is one inode's scan result in IID space, waiting for the
// next splice.
type stagedInode struct {
	objs   []contribObj
	edges  []contribEdge
	issues []scanner.Issue
	stats  scanner.Stats
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

	// gidOf maps IID -> GID (unresolved when dead): the liveness snapshot
	// U's GID lookups read.
	gidOf []uint32
}

// NewDeltaBuilder fixes the canonical server order (MDTs first, then
// OSTs by index — the same convention as NewBuilder).
func NewDeltaBuilder(labels []string) *DeltaBuilder {
	b := &DeltaBuilder{labels: labels, iids: newFIDTable(0)}
	for _, l := range labels {
		b.servers = append(b.servers, &deltaServer{label: l, staged: make(map[ldiskfs.Ino]*stagedInode)})
	}
	return b
}

// intern resolves (or assigns) the stable IID of a FID.
func (b *DeltaBuilder) intern(f lustre.FID) uint32 {
	iid, added := b.iids.intern(f)
	if added {
		b.refs = append(b.refs, 0)
		b.claims = append(b.claims, iidClaims{})
		b.staleClaims.in = append(b.staleClaims.in, false)
		b.dirty.in = append(b.dirty.in, false)
	}
	return iid
}

// account adds one contribution to the per-IID counts (d = 1) or
// withdraws it (d = ^uint32(0), the two's-complement -1).
func (b *DeltaBuilder) account(objs []contribObj, edges []contribEdge, d uint32) {
	for _, o := range objs {
		b.refs[o.iid] += d
		b.claims[o.iid].n += d
	}
	for _, e := range edges {
		b.refs[e.src] += d
		b.refs[e.dst] += d
	}
}

// claimsChanged marks the IIDs the objects claim for a re-read of their
// claim lists.
func (b *DeltaBuilder) claimsChanged(objs []contribObj) {
	for _, o := range objs {
		b.staleClaims.add(o.iid)
	}
}

// change accounts for a contribution joining (d = 1) or leaving
// (d = ^uint32(0)) the cache and marks every IID it touches dirty. Both
// the old and the new contribution of a changed inode pass through
// here: a replaced or removed edge changes the equations at both of its
// old endpoints just as an added one does at its new ones.
func (b *DeltaBuilder) change(objs []contribObj, edges []contribEdge, d uint32) {
	b.account(objs, edges, d)
	for _, o := range objs {
		b.dirty.add(o.iid)
	}
	for _, e := range edges {
		b.dirty.add(e.src)
		b.dirty.add(e.dst)
	}
}

// find returns the position of ino in the spliced arrays, or where it
// would be inserted.
func (s *deltaServer) find(ino ldiskfs.Ino) (int, bool) {
	return slices.BinarySearchFunc(s.inodes, ino, func(r inodeRec, ino ldiskfs.Ino) int {
		return cmp.Compare(r.ino, ino)
	})
}

// starts returns where the arena ranges of the inode at position i begin
// (for i == len(inodes), where the arenas end).
func (s *deltaServer) starts(i int) (obj, edge int) {
	if i == 0 {
		return 0, 0
	}
	return int(s.inodes[i-1].objEnd), int(s.inodes[i-1].edgeEnd)
}

// current returns the cached contribution of ino: the staged one if it
// has been applied or removed since the last splice, else the spliced
// one. The slices are views, valid until the server's next change.
func (s *deltaServer) current(ino ldiskfs.Ino) (objs []contribObj, edges []contribEdge, tracked bool) {
	if c, staged := s.staged[ino]; staged {
		if c == nil {
			return nil, nil, false
		}
		return c.objs, c.edges, true
	}
	i, ok := s.find(ino)
	if !ok {
		return nil, nil, false
	}
	o, e := s.starts(i)
	return s.objs[o:s.inodes[i].objEnd], s.edges[e:s.inodes[i].edgeEnd], true
}

// Apply replaces one inode's contribution with a fresh scan result
// (scanner.ScanInode output for that inode).
func (b *DeltaBuilder) Apply(server int, ino ldiskfs.Ino, p *scanner.Partial) error {
	if server < 0 || server >= len(b.servers) {
		return fmt.Errorf("agg: delta apply for unknown server index %d", server)
	}
	if p.Edges.SrcBound() > p.Objects.Len() {
		return fmt.Errorf("agg: delta apply for ino %d: edge source ordinal beyond its %d objects", ino, p.Objects.Len())
	}
	s := b.servers[server]
	if _, staged := s.staged[ino]; !staged && (len(s.inodes) == 0 || ino > s.inodes[len(s.inodes)-1].ino) {
		// Past the last spliced inode: appending keeps the arrays
		// canonical, so a full scan's ascending Applies never stage.
		o, e := len(s.objs), len(s.edges)
		s.objs, s.edges = b.toIIDs(s.objs, s.edges, p)
		for _, is := range p.Issues {
			s.issues = append(s.issues, inodeIssue{ino: ino, issue: is})
		}
		s.inodes = append(s.inodes, inodeRec{ino: ino, objEnd: uint32(len(s.objs)), edgeEnd: uint32(len(s.edges)), stats: p.Stats})
		s.tracked++
		b.change(s.objs[o:], s.edges[e:], 1)
		b.claimsChanged(s.objs[o:])
		return nil
	}

	c := &stagedInode{issues: p.Issues, stats: p.Stats}
	c.objs, c.edges = b.toIIDs(make([]contribObj, 0, p.Objects.Len()), make([]contribEdge, 0, p.Edges.Len()), p)
	oldObjs, oldEdges, tracked := s.current(ino)
	if tracked {
		b.change(oldObjs, oldEdges, ^uint32(0))
	} else {
		s.tracked++
	}
	// A refresh that names the same objects leaves every claim list as
	// it is.
	if !slices.Equal(oldObjs, c.objs) {
		b.claimsChanged(oldObjs)
		b.claimsChanged(c.objs)
	}
	b.change(c.objs, c.edges, 1)
	s.staged[ino] = c
	return nil
}

// toIIDs appends a scan result's objects and edges, translated into IID
// space, to objs and edges — interning objects first, then each edge's
// destination, the order that fixes the IIDs. A source is one of p's
// objects, interned already: it takes that object's IID.
func (b *DeltaBuilder) toIIDs(objs []contribObj, edges []contribEdge, p *scanner.Partial) ([]contribObj, []contribEdge) {
	own := len(objs)
	for i := range p.Objects.Len() {
		o := p.Objects.At(i)
		objs = append(objs, contribObj{iid: b.intern(o.FID), typ: o.Type})
	}
	for i := range p.Edges.Len() {
		edges = append(edges, contribEdge{src: objs[own+int(p.Edges.Src(i))].iid, dst: b.intern(p.Edges.Dst(i)), kind: p.Edges.Kind(i)})
	}
	return objs, edges
}

// Remove drops one inode's contribution (the tombstone for a freed
// inode). Removing an untracked inode is a no-op.
func (b *DeltaBuilder) Remove(server int, ino ldiskfs.Ino) {
	if server < 0 || server >= len(b.servers) {
		return
	}
	s := b.servers[server]
	objs, edges, tracked := s.current(ino)
	if !tracked {
		return
	}
	b.change(objs, edges, ^uint32(0))
	b.claimsChanged(objs)
	s.staged[ino] = nil
	s.tracked--
}

// ResetDirty clears the accumulated dirty-IID set. The online tracker
// calls it exactly when it saves warm-start ranks, so the set always
// describes the delta relative to the saved ranks, and when a round
// skips its rank and drops those ranks.
func (b *DeltaBuilder) ResetDirty() {
	b.dirty.reset()
}

// edit replaces a[at:at+del] with ins.
type edit[T any] struct {
	at, del int
	ins     []T
}

// splice applies edits — ascending and non-overlapping in a, their ins
// not aliasing it — in place, moving every run of kept elements at most
// once: runs that end up further left are copied first, left to right,
// then runs that end up further right, right to left, so no copy lands
// on elements still to be moved.
func splice[T any](a []T, edits []edit[T]) []T {
	n, grow := len(a), 0
	for _, e := range edits {
		grow += len(e.ins) - e.del
	}
	if grow > 0 {
		a = slices.Grow(a, grow)[:n+grow]
	}
	// Run k is the kept elements between edit k-1 and edit k; the last
	// run ends at n. Its shift is the net growth of the edits before it.
	shift, from := 0, 0
	for k := 0; k <= len(edits); k++ {
		to := n
		if k < len(edits) {
			to = edits[k].at
		}
		if shift < 0 {
			copy(a[from+shift:], a[from:to])
		}
		if k < len(edits) {
			shift += len(edits[k].ins) - edits[k].del
			from = to + edits[k].del
		}
	}
	to := n
	for k := len(edits); k >= 0; k-- {
		from := 0
		if k > 0 {
			from = edits[k-1].at + edits[k-1].del
		}
		if shift > 0 {
			copy(a[from+shift:], a[from:to])
		}
		if k > 0 {
			shift -= len(edits[k-1].ins) - edits[k-1].del
			to = edits[k-1].at
		}
	}
	for _, e := range edits {
		copy(a[e.at+shift:], e.ins)
		shift += len(e.ins) - e.del
	}
	return a[:n+grow]
}

// spliceScratch is the edit lists of one splice, kept on the builder so
// that a round's splices allocate nothing.
type spliceScratch struct {
	inos   []ldiskfs.Ino
	recs   []inodeRec
	inodes []edit[inodeRec]
	objs   []edit[contribObj]
	edges  []edit[contribEdge]
	issues []edit[inodeIssue]
}

// reset empties the lists for the next splice. The edits point into the
// staged contributions just spliced in; the pointers go with them.
func (sc *spliceScratch) reset() {
	clear(sc.inodes)
	clear(sc.objs)
	clear(sc.edges)
	clear(sc.issues)
	sc.inos, sc.recs = sc.inos[:0], sc.recs[:0]
	sc.inodes, sc.objs, sc.edges, sc.issues = sc.inodes[:0], sc.objs[:0], sc.edges[:0], sc.issues[:0]
}

// splice folds the staged inodes into the canonical arrays: one edit per
// staged inode and array, applied in place.
func (s *deltaServer) splice(sc *spliceScratch) {
	if len(s.staged) == 0 {
		return
	}
	for ino := range s.staged {
		sc.inos = append(sc.inos, ino)
	}
	slices.Sort(sc.inos)
	// One record per staged contribution, carrying its counts where the
	// offsets go; sized up front so the one-element ins slices stay put.
	sc.recs = slices.Grow(sc.recs, len(sc.inos))
	for _, ino := range sc.inos {
		c := s.staged[ino]
		i, found := s.find(ino)
		o, e := s.starts(i)
		ei := edit[inodeRec]{at: i}
		eo := edit[contribObj]{at: o}
		ee := edit[contribEdge]{at: e}
		is0, _ := slices.BinarySearchFunc(s.issues, ino, func(is inodeIssue, ino ldiskfs.Ino) int { return cmp.Compare(is.ino, ino) })
		es := edit[inodeIssue]{at: is0}
		if found {
			ei.del, eo.del, ee.del = 1, int(s.inodes[i].objEnd)-o, int(s.inodes[i].edgeEnd)-e
			for is0+es.del < len(s.issues) && s.issues[is0+es.del].ino == ino {
				es.del++
			}
		}
		if c != nil {
			sc.recs = append(sc.recs, inodeRec{ino: ino, objEnd: uint32(len(c.objs)), edgeEnd: uint32(len(c.edges)), stats: c.stats})
			ei.ins, eo.ins, ee.ins = sc.recs[len(sc.recs)-1:], c.objs, c.edges
			for _, is := range c.issues {
				es.ins = append(es.ins, inodeIssue{ino: ino, issue: is})
			}
		}
		if ei.del == 0 && ei.ins == nil {
			continue // removed before it was ever spliced in
		}
		sc.inodes, sc.objs, sc.edges = append(sc.inodes, ei), append(sc.objs, eo), append(sc.edges, ee)
		if es.del > 0 || es.ins != nil {
			sc.issues = append(sc.issues, es)
		}
	}
	if len(sc.inodes) > 0 {
		// The offsets from the first edit on become counts for the splice
		// and are summed up again after it.
		lo := sc.inodes[0].at
		for i := len(s.inodes) - 1; i >= lo; i-- {
			o, e := s.starts(i)
			s.inodes[i].objEnd -= uint32(o)
			s.inodes[i].edgeEnd -= uint32(e)
		}
		s.inodes = splice(s.inodes, sc.inodes)
		for i := lo; i < len(s.inodes); i++ {
			o, e := s.starts(i)
			s.inodes[i].objEnd += uint32(o)
			s.inodes[i].edgeEnd += uint32(e)
		}
		s.objs = splice(s.objs, sc.objs)
		s.edges = splice(s.edges, sc.edges)
		s.issues = splice(s.issues, sc.issues)
	}
	clear(s.staged)
	sc.reset()
}

// settle brings the arrays and the claim lists up to date with every
// Apply and Remove so far.
func (b *DeltaBuilder) settle() {
	for _, s := range b.servers {
		s.splice(&b.scratch)
	}
	if len(b.staleClaims.list) == 0 {
		return
	}
	// Stale lists are carved afresh from one backing array and filled by
	// one canonical walk over the object arenas, exactly as a cold merge
	// collects its claims; the lists they replace stay as they are for
	// whoever still holds them.
	total := 0
	for _, iid := range b.staleClaims.list {
		c := &b.claims[iid]
		c.list, c.typ = nil, 0
		total += int(c.n)
	}
	backing := make([]ObjectLoc, total)
	for _, s := range b.servers {
		i := 0
		for k, o := range s.objs {
			if !b.staleClaims.in[o.iid] {
				continue
			}
			// The inode holding object k: the first, from the last hit on,
			// whose objects end past it — usually that one or the next.
			if int(s.inodes[i].objEnd) <= k {
				j, _ := slices.BinarySearchFunc(s.inodes[i+1:], k, func(r inodeRec, k int) int {
					return cmp.Compare(int(r.objEnd), k+1)
				})
				i += 1 + j
			}
			c := &b.claims[o.iid]
			if c.list == nil {
				c.list, backing = backing[:0:c.n], backing[c.n:]
				c.typ = o.typ
			}
			c.list = append(c.list, ObjectLoc{Server: s.label, Ino: s.inodes[i].ino})
		}
	}
	b.staleClaims.reset()
}

// Materialize renumbers the live IIDs densely, in ascending IID order,
// and assembles the check's Unified in the canonical (server order,
// ascending inode) walk — the same walk a cold merge over full scans
// performs.
//
// The builder owns what Materialize returns and rewrites it on the next
// call: every call returns the same *Materialized and the same *Unified,
// overwritten in the storage the previous call used (grown append-style
// when the graph outgrows it), so a steady-state round allocates only in
// proportion to its delta. Whatever was read from an earlier result —
// the Unified's slices, its GID lookups, IIDOfGID — holds this call's
// graph from now on; a caller that needs an earlier round's graph copies
// it first. Claim lists are the exception: a list, once handed out, is
// never written again (see iidClaims), so they may be kept.
func (b *DeltaBuilder) Materialize() *Materialized {
	b.settle()
	m := b.last
	if m == nil {
		m = &Materialized{U: &Unified{}}
		b.last = m
		// GID lookups resolve through the persistent interner and m's
		// current liveness snapshot.
		iids := b.iids // not b: a Unified someone keeps should not pin the arenas
		m.U.gidFn = func(f lustre.FID) (uint32, bool) {
			iid, ok := iids.get(f)
			if !ok || int(iid) >= len(m.gidOf) || m.gidOf[iid] == unresolved {
				return 0, false
			}
			return m.gidOf[iid], true
		}
	}
	nIID := len(b.iids.fids)
	// gidOf doubles as the liveness snapshot the GID lookup needs.
	gidOf := resized(m.gidOf, nIID)
	iidOfGID := resized(m.IIDOfGID, nIID)[:0]
	for iid, r := range b.refs {
		if r == 0 {
			gidOf[iid] = unresolved
			continue
		}
		gidOf[iid] = uint32(len(iidOfGID))
		iidOfGID = append(iidOfGID, uint32(iid))
	}
	n := len(iidOfGID)
	var nEdge int
	for _, s := range b.servers {
		nEdge += len(s.edges)
	}

	u := m.U
	// A claim list dropped off the end would stay reachable from the
	// storage beyond it.
	clear(u.Claims[min(n, len(u.Claims)):])
	u.FIDs, u.Present, u.Types = resized(u.FIDs, n), resized(u.Present, n), resized(u.Types, n)
	u.Claims, u.Edges = resized(u.Claims, n), resized(u.Edges, nEdge)
	u.Issues = nil // rare: built afresh
	// The first claim in canonical order fixes Present and Types,
	// exactly as the batch merge does.
	for g, iid := range iidOfGID {
		c := &b.claims[iid]
		u.FIDs[g] = b.iids.fids[iid]
		u.Present[g] = c.n > 0
		u.Types[g] = c.typ
		u.Claims[g] = c.list
	}
	// The arenas are the canonical edge order; issues keep the cold
	// per-server order the same way.
	edges := u.Edges
	for _, s := range b.servers {
		for k, e := range s.edges {
			edges[k] = graph.Edge{Src: gidOf[e.src], Dst: gidOf[e.dst], Kind: e.kind}
		}
		edges = edges[len(s.edges):]
		for _, is := range s.issues {
			u.Issues = append(u.Issues, fmt.Sprintf("%s: %s", s.label, is.issue))
		}
	}

	// The renumbering is ascending, so dirty IIDs in order give the seeds
	// in order.
	slices.Sort(b.dirty.list)
	seeds := make([]uint32, 0, len(b.dirty.list))
	for _, iid := range b.dirty.list {
		if g := gidOf[iid]; g != unresolved {
			seeds = append(seeds, g)
		}
	}
	if len(seeds) == 0 {
		seeds = nil
	}
	m.gidOf, m.IIDOfGID, m.NumIIDs, m.DirtySeeds = gidOf, iidOfGID, nIID, seeds
	return m
}

// resized returns s at length n: in s's own storage when that is large
// enough, otherwise grown append-style, so a snapshot that gains a few
// vertices and edges per round reallocates only now and then. The
// contents are the caller's to overwrite.
func resized[T any](s []T, n int) []T {
	if cap(s) == 0 {
		return make([]T, n) // nothing to reuse: exactly what a fresh round makes
	}
	return slices.Grow(s[:0], n)[:n]
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
	_, _, tracked := b.servers[server].current(ino)
	return tracked
}

// TrackedCount returns how many inodes the builder tracks for a server.
func (b *DeltaBuilder) TrackedCount(server int) int {
	if server < 0 || server >= len(b.servers) {
		return 0
	}
	return b.servers[server].tracked
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
	s.splice(&b.scratch)
	// slices.Grow keeps an empty section nil, as appending would.
	out := &scanner.Partial{ServerLabel: s.label, Issues: slices.Grow([]scanner.Issue(nil), len(s.issues))}
	k, j := 0, 0
	for _, rec := range s.inodes {
		// An edge leaves one of its own inode's objects; its source
		// ordinal is that object's position among the server's.
		objs := s.objs[k:rec.objEnd]
		for ; j < int(rec.edgeEnd); j++ {
			e := s.edges[j]
			src := k + slices.IndexFunc(objs, func(o contribObj) bool { return o.iid == e.src })
			out.Edges.Append(scanner.Edge{Src: uint32(src), Dst: b.iids.fids[e.dst], Kind: e.kind})
		}
		for ; k < int(rec.objEnd); k++ {
			o := s.objs[k]
			out.Objects.Append(scanner.Object{FID: b.iids.fids[o.iid], Ino: rec.ino, Type: o.typ})
		}
		out.Stats.Add(rec.stats)
	}
	for _, is := range s.issues {
		out.Issues = append(out.Issues, is.issue)
	}
	return out
}
