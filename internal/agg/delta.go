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
// online checker (package online) feeds it scan results — a whole
// server's sweep, or a round's re-parsed inodes, through ApplyScan; one
// inode's, through Apply — and tombstones for freed inodes (Remove), and
// each check materialises a Unified without re-interning or re-merging
// the unchanged majority.
//
// Internally FIDs are interned once, persistently, onto stable internal
// ids (IIDs) that are never recycled, and the per-inode contributions
// are cached in IID space in flat, pointer-free arrays kept in canonical
// order: per server, the tracked inodes ascending with prefix offsets
// into one object arena and one edge arena. A changed inode is staged
// and one in-place splice per dirty server folds the staged inodes in
// at the next read. Per IID the builder maintains a reference count
// (live ⇔ non-zero) and a claim count, so Materialize is a handful of
// sequential passes — renumber the live IIDs densely into the check's
// GID space, gather the vertex arrays, place the claims from the object
// arenas, translate the edge arenas — with no map operation and no
// allocation per vertex. Dead FIDs (deleted and no longer referenced)
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

	// Persistent interner: FID <-> IID, append-only. refs, claims and the
	// dirty set's flags are indexed by IID and grow with it.
	iids *fidTable

	// refs counts, per IID, the cached objects claiming it plus the
	// cached edge endpoints naming it. Apply and Remove adjust it from
	// the old and the new contribution; an IID is live while it is
	// non-zero.
	refs []uint32
	// claims counts, per IID, the cached objects claiming it.
	claims []uint32

	// dirty accumulates the IIDs whose cached contribution changed since
	// the last ResetDirty — the seed set for frontier-based incremental
	// ranking. It is cumulative on purpose: the online tracker resets it
	// only when it saves warm-start ranks (a converged check), so the
	// seeds always mean "changed since the ranks we would warm-start
	// from", even across failed or unconverged checks in between.
	dirty iidSet

	scratch spliceScratch
	// scans is the storage of the intake's split of a scan result.
	scans []inodeScan
	// stage holds the contributions the intake stages, in IID space: each
	// staged inode's slices are views of it, so staging allocates only
	// while a round stages more than any before. Materialize splices
	// every server and empties it; nothing views it after that.
	stage struct {
		objs   []contribObj
		edges  []contribEdge
		issues []scanner.Issue
	}

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
	// seeds is DirtySeeds' storage, kept while DirtySeeds is nil.
	seeds []uint32
}

// NewDeltaBuilder fixes the canonical server order (MDTs first, then
// OSTs by index — the same convention as NewBuilder). It panics on more
// than 1<<16 labels, more than its snapshot format can hold.
func NewDeltaBuilder(labels []string) *DeltaBuilder {
	if len(labels) > maxServers {
		panic(fmt.Sprintf("agg: %d servers, more than the %d a claim can name", len(labels), maxServers))
	}
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
		b.claims = append(b.claims, 0)
		b.dirty.in = append(b.dirty.in, false)
	}
	return iid
}

// account adds one contribution to the per-IID counts (d = 1) or
// withdraws it (d = ^uint32(0), the two's-complement -1).
func (b *DeltaBuilder) account(objs []contribObj, edges []contribEdge, d uint32) {
	for _, o := range objs {
		b.refs[o.iid] += d
		b.claims[o.iid] += d
	}
	for _, e := range edges {
		b.refs[e.src] += d
		b.refs[e.dst] += d
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
// (scanner.ScanInode output for that inode): the intake's one-inode
// case. Every record of p is ino's, p.Stats are its stats, and an empty
// p tracks ino with no contribution.
func (b *DeltaBuilder) Apply(server int, ino ldiskfs.Ino, p *scanner.Partial) error {
	if p.Edges.SrcBound() > p.Objects.Len() {
		return fmt.Errorf("agg: delta apply for ino %d: edge source ordinal beyond its %d objects", ino, p.Objects.Len())
	}
	b.scans = append(b.scans[:0], inodeScan{ino: ino, o1: p.Objects.Len(), e1: p.Edges.Len(), issues: p.Issues, stats: p.Stats})
	return b.intake(server, p, b.scans)
}

// ApplyScan replaces the contribution of every inode p holds records of
// — a server's sweep (scanner.ScanImage) or a batch of re-parsed inodes
// (scanner.AppendInode) — exactly as Applying each inode's records alone,
// in ascending inode order, would. The records are split by the inode
// each names: an object and an issue by its Ino, an edge by its source
// object's. The scanner emits them in ascending inode order, and every
// inode it counts yields at least one record; a p that breaks either
// rule is refused whole. Each inode's Stats are derived from its records
// (scanner.InodeStats) and must sum to p.Stats.
func (b *DeltaBuilder) ApplyScan(server int, p *scanner.Partial) error {
	var err error
	if b.scans, err = splitScan(b.scans[:0], p); err != nil {
		return fmt.Errorf("agg: delta intake: %w", err)
	}
	return b.intake(server, p, b.scans)
}

// inodeScan is one inode's records in a scan result: objects [o0, o1)
// and edges [e0, e1) of the partial, and its issues and stats.
type inodeScan struct {
	ino            ldiskfs.Ino
	o0, o1, e0, e1 int
	issues         []scanner.Issue
	stats          scanner.Stats
}

// splitScan appends p's records, split per inode, to scans.
func splitScan(scans []inodeScan, p *scanner.Partial) ([]inodeScan, error) {
	nObj, nEdge := p.Objects.Len(), p.Edges.Len()
	var sc inodeScan
	var sum scanner.Stats
	for i := 0; sc.o1 < nObj || i < len(p.Issues); {
		ino := ^ldiskfs.Ino(0)
		if sc.o1 < nObj {
			ino = p.Objects.Ino(sc.o1)
		}
		if i < len(p.Issues) {
			ino = min(ino, p.Issues[i].Ino)
		}
		if len(scans) > 0 && ino <= sc.ino {
			return scans, fmt.Errorf("records out of inode order at ino %d", ino)
		}
		sc.ino, sc.o0, sc.e0 = ino, sc.o1, sc.e1
		for sc.o1 < nObj && p.Objects.Ino(sc.o1) == ino {
			sc.o1++
		}
		for ; sc.e1 < nEdge && int(p.Edges.Src(sc.e1)) < sc.o1; sc.e1++ {
			if int(p.Edges.Src(sc.e1)) < sc.o0 {
				return scans, fmt.Errorf("edge %d leaves an earlier inode's object", sc.e1)
			}
		}
		i0 := i
		for i < len(p.Issues) && p.Issues[i].Ino == ino {
			i++
		}
		sc.issues = p.Issues[i0:i]
		sc.stats = scanner.InodeStats(scanner.EdgeRecords(p.Edges.Bytes()[sc.e0*scanner.EdgeSize:sc.e1*scanner.EdgeSize]), sc.issues)
		sum.Add(sc.stats)
		scans = append(scans, sc)
	}
	if sc.e1 < nEdge {
		return scans, fmt.Errorf("edge %d leaves no object before it", sc.e1)
	}
	if sum != p.Stats {
		return scans, fmt.Errorf("records of %d inodes add up to %+v, the scan counted %+v", len(scans), sum, p.Stats)
	}
	return scans, nil
}

// intake is the one way a contribution enters the builder: it replaces
// the contribution of every inode in scans with that inode's records in
// p, in order.
func (b *DeltaBuilder) intake(server int, p *scanner.Partial, scans []inodeScan) error {
	if server < 0 || server >= len(b.servers) {
		return fmt.Errorf("agg: delta apply for unknown server index %d", server)
	}
	s := b.servers[server]
	for _, sc := range scans {
		b.put(s, p, sc)
	}
	return nil
}

// put replaces one inode's contribution with its records in p.
func (b *DeltaBuilder) put(s *deltaServer, p *scanner.Partial, sc inodeScan) {
	if _, staged := s.staged[sc.ino]; !staged && (len(s.inodes) == 0 || sc.ino > s.inodes[len(s.inodes)-1].ino) {
		// Past the last spliced inode: appending keeps the arrays
		// canonical, so a sweep's ascending inodes never stage.
		o, e := len(s.objs), len(s.edges)
		s.objs, s.edges = b.toIIDs(s.objs, s.edges, p, sc)
		for _, is := range sc.issues {
			s.issues = append(s.issues, inodeIssue{ino: sc.ino, issue: is})
		}
		s.inodes = append(s.inodes, inodeRec{ino: sc.ino, objEnd: uint32(len(s.objs)), edgeEnd: uint32(len(s.edges)), stats: sc.stats})
		s.tracked++
		b.change(s.objs[o:], s.edges[e:], 1)
		return
	}

	// Staged records are copies: p may be a buffer its owner refills.
	c := &stagedInode{stats: sc.stats}
	o, e, i := len(b.stage.objs), len(b.stage.edges), len(b.stage.issues)
	b.stage.objs, b.stage.edges = b.toIIDs(b.stage.objs, b.stage.edges, p, sc)
	b.stage.issues = append(b.stage.issues, sc.issues...)
	c.objs, c.edges, c.issues = slices.Clip(b.stage.objs[o:]), slices.Clip(b.stage.edges[e:]), slices.Clip(b.stage.issues[i:])
	oldObjs, oldEdges, tracked := s.current(sc.ino)
	if tracked {
		b.change(oldObjs, oldEdges, ^uint32(0))
	} else {
		s.tracked++
	}
	b.change(c.objs, c.edges, 1)
	s.staged[sc.ino] = c
}

// toIIDs appends one inode's objects and edges in p, translated into IID
// space, to objs and edges — interning objects first, then each edge's
// destination, the order that fixes the IIDs. A source is one of the
// inode's objects, interned already: it takes that object's IID.
func (b *DeltaBuilder) toIIDs(objs []contribObj, edges []contribEdge, p *scanner.Partial, sc inodeScan) ([]contribObj, []contribEdge) {
	own := len(objs) - sc.o0
	for i := sc.o0; i < sc.o1; i++ {
		o := p.Objects.At(i)
		objs = append(objs, contribObj{iid: b.intern(o.FID), typ: o.Type})
	}
	for i := sc.e0; i < sc.e1; i++ {
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
// it first.
func (b *DeltaBuilder) Materialize() *Materialized {
	for _, s := range b.servers {
		s.splice(&b.scratch)
	}
	b.stage.objs, b.stage.edges, b.stage.issues = b.stage.objs[:0], b.stage.edges[:0], b.stage.issues[:0]
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
	var nObj, nEdge int
	for _, s := range b.servers {
		nObj += len(s.objs)
		nEdge += len(s.edges)
	}

	u := m.U
	u.FIDs, u.Present, u.Types = resized(u.FIDs, n), resized(u.Present, n), resized(u.Types, n)
	u.claimOff, u.Edges = resized(u.claimOff, n+1), resized(u.Edges, nEdge)
	u.servers = b.labels
	u.Issues = nil // rare: built afresh
	var first uint32
	for g, iid := range iidOfGID {
		u.FIDs[g] = b.iids.fids[iid]
		u.Present[g], u.Types[g] = false, ldiskfs.TypeFree
		u.claimOff[g+1] = first
		first += b.claims[iid]
	}
	u.startClaims(nObj)
	// The arenas are the canonical object and edge order: the first claim
	// of each vertex fixes Present and Types, exactly as the batch merge
	// does. Issues keep the cold per-server order the same way.
	edges := u.Edges
	for si, s := range b.servers {
		k := 0
		for i := range s.inodes {
			ino := s.inodes[i].ino
			for ; k < int(s.inodes[i].objEnd); k++ {
				o := s.objs[k]
				u.addClaim(gidOf[o.iid], uint16(si), ino, o.typ)
			}
		}
		for k, e := range s.edges {
			edges[k] = graph.Edge{Src: gidOf[e.src], Dst: gidOf[e.dst], Kind: e.kind}
		}
		edges = edges[len(s.edges):]
		for _, is := range s.issues {
			u.Issues = append(u.Issues, s.label+": "+is.issue.String())
		}
	}

	// The renumbering is ascending, so dirty IIDs in order give the seeds
	// in order.
	slices.Sort(b.dirty.list)
	seeds := m.seeds[:0]
	for _, iid := range b.dirty.list {
		if g := gidOf[iid]; g != unresolved {
			seeds = append(seeds, g)
		}
	}
	m.seeds, m.DirtySeeds = seeds, seeds
	if len(seeds) == 0 {
		m.DirtySeeds = nil
	}
	m.gidOf, m.IIDOfGID, m.NumIIDs = gidOf, iidOfGID, nIID
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
