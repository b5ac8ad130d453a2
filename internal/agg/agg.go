// Package agg implements the FaultyRank aggregator (paper §IV-B): it
// merges the partial graphs produced by per-server scanners into one
// unified metadata graph, remaps sparse 128-bit FIDs onto dense 32-bit
// GIDs, and builds the in-DRAM CSR the iterative algorithm runs on.
//
// Because FIDs are cluster-unique, merging never conflicts. The remap
// goes through a two-tier index (seqindex.go): a dense array per
// well-filled sequence, and a flat open-addressed FID table
// (fidtable.go) for everything else. GIDs are assigned in first-
// appearance order of the canonical stream, so the same set of partials
// always yields the same GID space regardless of worker count. A
// Builder accepts the scanners' chunk streams incrementally, which lets
// aggregation overlap transfer.
package agg

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/par"
	"faultyrank/internal/scanner"
)

// ObjectLoc is the physical location of one inode claiming a FID.
type ObjectLoc struct {
	Server string // image label ("mdt0", "ost3", ...)
	Ino    ldiskfs.Ino
}

// Unified is the merged, densely-numbered metadata graph plus the vertex
// metadata the checker needs to translate graph findings back into file
// system repairs.
type Unified struct {
	// FIDs maps GID -> FID.
	FIDs []lustre.FID
	// Edges is the merged edge list in GID space.
	Edges []graph.Edge
	// Present[g] is true when at least one scanned inode carries FID g;
	// false marks a phantom: a FID that is referenced but exists nowhere.
	Present []bool
	// Types[g] is the file type of the first claiming inode.
	Types []ldiskfs.FileType
	// Issues carries forward the scanners' structural parse problems.
	Issues []string

	// The claim table: every physical inode claiming FID g, in canonical
	// (server, inode, emission) order, is one of the entries claimOff[g]
	// to claimOff[g+1] of claimSrv, an index into servers, and claimIno —
	// 10 bytes a claim and 4 a vertex. ClaimCount and Claim read it.
	claimOff []uint32
	claimSrv []uint16
	claimIno []ldiskfs.Ino
	servers  []string

	byFID *seqIndex
	// gidFn, when non-nil, overrides byFID lookups. Incremental
	// producers (DeltaBuilder) resolve GIDs through their persistent
	// interner instead of rebuilding a per-run index.
	gidFn func(lustre.FID) (uint32, bool)
}

// N returns the vertex count of the unified graph.
func (u *Unified) N() int { return len(u.FIDs) }

// GID resolves a FID to its dense id.
func (u *Unified) GID(f lustre.FID) (uint32, bool) {
	if u.gidFn != nil {
		return u.gidFn(f)
	}
	return u.byFID.get(f)
}

// FID returns the FID of a GID (zero value when out of range).
func (u *Unified) FID(g uint32) lustre.FID {
	if int(g) >= len(u.FIDs) {
		return lustre.FID{}
	}
	return u.FIDs[g]
}

// maxServers bounds the servers a Unified can name: a claim holds its
// server as a 16-bit index, as the FRDB snapshot holds its label count.
const maxServers = 1 << 16

// ClaimCount returns how many physical inodes claim g; more than one is
// itself an inconsistency (duplicate identity).
func (u *Unified) ClaimCount(g uint32) int { return int(u.claimOff[g+1] - u.claimOff[g]) }

// Claim returns the i-th inode claiming g (0 <= i < ClaimCount(g)), in
// canonical (server, inode, emission) order.
func (u *Unified) Claim(g uint32, i int) ObjectLoc {
	k := int(u.claimOff[g]) + i
	return ObjectLoc{Server: u.servers[u.claimSrv[k]], Ino: u.claimIno[k]}
}

// startClaims readies the claim table for nClaims claims, placed in
// canonical order by addClaim: claimOff[g+1] must hold the first slot of
// g's claims — the cursor addClaim advances to their end, which leaves
// claimOff the table's offsets once every claim is in. Present must be
// all false.
func (u *Unified) startClaims(nClaims int) {
	u.claimOff[0] = 0
	u.claimSrv, u.claimIno = resized(u.claimSrv, nClaims), resized(u.claimIno, nClaims)
}

// addClaim places the next claim of g in canonical order; the first one
// marks g present and fixes its type.
func (u *Unified) addClaim(g uint32, srv uint16, ino ldiskfs.Ino, typ ldiskfs.FileType) {
	at := u.claimOff[g+1]
	u.claimOff[g+1] = at + 1
	u.claimSrv[at], u.claimIno[at] = srv, ino
	if !u.Present[g] {
		u.Present[g] = true
		u.Types[g] = typ
	}
}

// MergeWorkers combines partial graphs into a unified graph using
// workers cores (<= 0 = GOMAXPROCS). Partials must be passed in a fixed
// order (conventionally MDT first, then OSTs by index) for a
// deterministic GID space. The result is identical for every worker
// count: GIDs are assigned sequentially in first-appearance order of the
// canonical stream (every part's Objects in part order, then every
// part's Edges' destinations — a source is one of the part's objects),
// and the one parallel pass writes disjoint slots. It panics on a part
// whose edge names a source ordinal beyond its objects, which no scan
// produces, and on more than 1<<16 parts.
func MergeWorkers(parts []*scanner.Partial, workers int) *Unified {
	if len(parts) > maxServers {
		panic(fmt.Sprintf("agg: %d partials, more than the %d servers a claim can name", len(parts), maxServers))
	}
	segs := make([]segment, len(parts))
	base := 0
	for i, p := range parts {
		if p.Edges.SrcBound() > p.Objects.Len() {
			panic(fmt.Sprintf("agg: partial %q: edge source ordinal beyond its %d objects", p.ServerLabel, p.Objects.Len()))
		}
		segs[i] = segment{label: p.ServerLabel, objects: p.Objects, edges: p.Edges, issues: p.Issues, base: base}
		base += p.Objects.Len()
	}
	return mergeObserved(segs, workers, nil)
}

// segment is one piece of the canonical stream as the merge reads it: a
// whole Partial, or one chunk a Builder retained. A server's segments
// are adjacent and in stream order, so walking the segments walks each
// section of the canonical stream in order without concatenating it.
// The merge only reads the sections, reading each field from its record
// at stride.
type segment struct {
	label   string
	objects scanner.Objects
	edges   scanner.Edges
	issues  []scanner.Issue
	// base is the canonical index of the object that the segment's
	// source ordinal 0 names: the first object of its server's stream,
	// or of its Partial.
	base    int
	edgeOff int // index of edges[0] in the merged edge list; set by the merge
}

// unresolved marks an edge endpoint whose FID no object claims. It can
// never be a GID: the index's ids stop at 2^32-2.
const unresolved = ^uint32(0)

// mergeObserved merges the canonical stream held in segs, with
// instrumentation: each pass reports per-worker busy time and item
// counts through m, and the interner's final size lands on the
// agg_interned_fids gauge. A nil m observes nothing and adds no
// overhead beyond one branch per pass.
func mergeObserved(segs []segment, workers int, m *Metrics) *Unified {
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	var nObj, nEdge, servers int
	for i := range segs {
		s := &segs[i]
		s.edgeOff = nEdge
		nObj += s.objects.Len()
		nEdge += s.edges.Len()
		if i == 0 || s.label != segs[i-1].label {
			servers++
		}
	}
	tab := newSeqIndex(segs, nObj)
	u := &Unified{byFID: tab, Edges: make([]graph.Edge, nEdge)}

	// (1) Objects claim their FIDs in canonical order — one worker, whose
	// busy time and item count observedRange still reports.
	objGID := make([]uint32, 0, nObj)
	observedRange(nObj, 1, m, m.mergeObjects(), func(int, int) {
		for _, s := range segs {
			for i := range s.objects.Len() {
				objGID = append(objGID, tab.intern(s.objects.FID(i)))
			}
		}
	})

	// (2) Edge translation, parallel over read-only lookups: order-
	// preserving, each slot written once. A worker's share of the merged
	// edge list starts inside some segment and may span several. A
	// source is an object the scan numbered, so it takes that object's
	// GID; only a destination can need the index.
	var phantoms atomic.Bool
	observedRange(nEdge, workers, m, m.mergeEdges(), func(lo, hi int) {
		i := sort.Search(len(segs), func(i int) bool { return segs[i].edgeOff+segs[i].edges.Len() > lo })
		for ; i < len(segs) && segs[i].edgeOff < hi; i++ {
			s := &segs[i]
			edges, off := s.edges, s.edgeOff
			out := u.Edges[max(lo, off):min(hi, off+edges.Len())]
			first := max(lo, off) - off
			for k := range out {
				j := first + k
				dst, ok := tab.get(edges.Dst(j))
				if !ok {
					dst = unresolved
					phantoms.Store(true)
				}
				out[k] = graph.Edge{Src: objGID[s.base+int(edges.Src(j))], Dst: dst, Kind: edges.Kind(j)}
			}
		}
	})

	// (3) The unresolved destinations are exactly the phantoms (none on
	// a clean cluster, which skips the pass). Every object precedes
	// every edge in the canonical stream, so interning them in edge
	// order completes the first-appearance numbering.
	for i := 0; i < len(segs) && phantoms.Load(); i++ {
		s := &segs[i]
		out := u.Edges[s.edgeOff:]
		for k := range s.edges.Len() {
			if e := &out[k]; e.Dst == unresolved {
				e.Dst = tab.intern(s.edges.Dst(k))
			}
		}
	}
	u.FIDs = tab.tab.fids
	n := len(u.FIDs)
	if m != nil {
		m.InternedFIDs.Set(int64(n))
		m.Journal.Record("agg", "interned", "fids", fmt.Sprintf("%d", n))
	}

	// (4) Present, Types and the claim table in one pass over the
	// recorded object GIDs. The claim counts, prefix-summed in place into
	// each GID's first slot, become the table's offsets as the pass
	// places the claims.
	u.Present = make([]bool, n)
	u.Types = make([]ldiskfs.FileType, n) // zero value is TypeFree
	u.claimOff = make([]uint32, n+1)
	for _, g := range objGID {
		u.claimOff[g+1]++
	}
	var first uint32
	for g := range n {
		c := u.claimOff[g+1]
		u.claimOff[g+1] = first
		first += c
	}
	u.startClaims(nObj)
	k := 0
	for i, s := range segs {
		if i == 0 || s.label != segs[i-1].label {
			u.servers = append(u.servers, s.label)
		}
		srv := uint16(len(u.servers) - 1)
		for j := range s.objects.Len() {
			o := s.objects.At(j)
			u.addClaim(objGID[k], srv, o.Ino, o.Type)
			k++
		}
		for _, is := range s.issues {
			u.Issues = append(u.Issues, s.label+": "+is.String())
		}
	}
	if m != nil {
		m.Journal.Record("agg", "merge-done",
			"servers", fmt.Sprintf("%d", servers),
			"vertices", fmt.Sprintf("%d", n),
			"edges", fmt.Sprintf("%d", nEdge))
	}
	return u
}

// Builder accepts the scanners' chunk streams — in any interleaving
// across servers — and reassembles them into per-server partials so
// aggregation can overlap transfer. The canonical server order is fixed
// at construction; Finish then merges with the usual deterministic GID
// space, no matter how chunks arrived.
//
// Builder implements scanner.Sink, so in-process scanners stream into
// it directly; the wire collector feeds it decoded chunks. Under the
// Sink ownership rule it retains each chunk without copying and never
// writes to it: Finish merges straight from the retained chunks, then
// lets go of them, so the received frames can be collected while the
// rest of the check runs. A Builder merges once.
type Builder struct {
	mu      sync.Mutex
	order   []string
	accs    map[string]*builderAcc
	merged  bool
	metrics *Metrics
}

type builderAcc struct {
	label   string
	chunks  []*scanner.Chunk // retained in Seq order
	objects int              // object records in chunks
	done    bool
}

// NewBuilder fixes the canonical server order (conventionally MDTs
// first, then OSTs by index — the order their labels are passed here).
func NewBuilder(labels []string) *Builder {
	b := &Builder{order: labels, accs: make(map[string]*builderAcc, len(labels))}
	for _, l := range labels {
		b.accs[l] = &builderAcc{label: l}
	}
	return b
}

// Observe attaches instrumentation: intake counters on every Emit,
// lock-wait samples, and merge-side metrics on Finish/FinishCompleted.
// Call before streaming starts; not synchronised with Emit.
func (b *Builder) Observe(m *Metrics) { b.metrics = m }

// Emit consumes one chunk. Safe for concurrent use by the per-server
// scanner goroutines; chunks of one server must arrive in Seq order
// (the scanner and the wire stream both guarantee it), and an edge's
// source ordinal must name an object its stream has carried so far,
// this chunk's included. Only an accepted chunk counts into the intake
// counters.
func (b *Builder) Emit(c *scanner.Chunk) error {
	srcs := c.Edges.SrcBound() // read outside the lock
	m := b.metrics
	if m != nil {
		t0 := time.Now()
		b.mu.Lock()
		m.LockWait.Observe(time.Since(t0).Seconds())
	} else {
		b.mu.Lock()
	}
	defer b.mu.Unlock()
	acc, ok := b.accs[c.ServerLabel]
	if !ok {
		return fmt.Errorf("agg: chunk for unknown server %q", c.ServerLabel)
	}
	if b.merged {
		return fmt.Errorf("agg: chunk for server %q after the merge", c.ServerLabel)
	}
	if acc.done {
		return fmt.Errorf("agg: chunk after final for server %q", c.ServerLabel)
	}
	if c.Seq != len(acc.chunks) {
		return fmt.Errorf("agg: server %q chunk out of order: got seq %d, want %d", c.ServerLabel, c.Seq, len(acc.chunks))
	}
	if objects := acc.objects + c.Objects.Len(); srcs > objects {
		return fmt.Errorf("agg: server %q chunk %d: edge source ordinal %d beyond the stream's %d objects", c.ServerLabel, c.Seq, srcs-1, objects)
	}
	acc.chunks = append(acc.chunks, c)
	acc.objects += c.Objects.Len()
	acc.done = c.Final
	if m != nil {
		m.Chunks.Inc()
		m.Objects.Add(int64(c.Objects.Len()))
		m.Edges.Add(int64(c.Edges.Len()))
		m.Issues.Add(int64(len(c.Issues)))
	}
	return nil
}

// take returns the streams that have seen their final chunk, in
// canonical order, and the labels of those still open. Chunks already
// received on an incomplete stream are left out wholesale: merging a
// prefix would make the unified graph depend on where in the stream the
// failure landed, and degraded runs must stay deterministic for a given
// set of surviving servers. Unless it errors — on an open stream when
// all are required, when none completed, or on a second merge — take
// ends intake: the builder lets go of every chunk once the returned
// streams are merged.
func (b *Builder) take(all bool) (done []*builderAcc, missing []string, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.merged {
		return nil, nil, fmt.Errorf("agg: builder already merged")
	}
	if len(b.order) > maxServers {
		return nil, nil, fmt.Errorf("agg: %d servers, more than the %d a claim can name", len(b.order), maxServers)
	}
	for _, l := range b.order {
		if acc := b.accs[l]; acc.done {
			done = append(done, acc)
		} else {
			missing = append(missing, l)
		}
	}
	switch {
	case all && len(missing) > 0:
		return nil, nil, fmt.Errorf("agg: server %q stream incomplete", missing[0])
	case !all && len(done) == 0:
		return nil, missing, fmt.Errorf("agg: no scanner stream completed (missing: %v)", missing)
	}
	b.merged = true
	for _, l := range missing {
		b.accs[l].chunks = nil
	}
	return done, missing, nil
}

// merge merges the given completed streams straight from their chunks,
// then drops the chunks.
func (b *Builder) merge(done []*builderAcc, workers int) *Unified {
	var segs []segment
	base := 0
	for _, acc := range done {
		for _, c := range acc.chunks {
			segs = append(segs, segment{label: acc.label, objects: c.Objects, edges: c.Edges, issues: c.Issues, base: base})
		}
		base += acc.objects
	}
	u := mergeObserved(segs, workers, b.metrics)
	b.mu.Lock()
	for _, acc := range done {
		acc.chunks = nil
	}
	b.mu.Unlock()
	return u
}

// Finish merges every stream into the unified graph using workers cores
// (<= 0 = GOMAXPROCS). It errors if any stream is still open, and on a
// builder that has merged already.
func (b *Builder) Finish(workers int) (*Unified, error) {
	done, _, err := b.take(true)
	if err != nil {
		return nil, err
	}
	return b.merge(done, workers), nil
}

// FinishCompleted merges only the completed streams (degraded mode),
// returning the unified graph built from the survivors and the labels
// of the servers whose streams never finished. It errors when no stream
// completed at all — there is nothing to degrade to — and on a builder
// that has merged already.
func (b *Builder) FinishCompleted(workers int) (*Unified, []string, error) {
	done, missing, err := b.take(false)
	if err != nil {
		return nil, missing, err
	}
	return b.merge(done, workers), missing, nil
}

// DuplicateClaims returns the GIDs claimed by more than one inode —
// duplicate-identity inconsistencies (paper Table I, double reference).
func (u *Unified) DuplicateClaims() []uint32 {
	var out []uint32
	for g := range u.N() {
		if u.ClaimCount(uint32(g)) > 1 {
			out = append(out, uint32(g))
		}
	}
	return out
}

// Orphans returns present GIDs with no incoming edges in the unified
// graph — objects nothing refers to (paper Table I, unreferenced object).
// It needs the built graph for degree information.
func (u *Unified) Orphans(b *graph.Bidirected) []uint32 {
	var out []uint32
	for g := 0; g < u.N(); g++ {
		if u.Present[g] && b.InDegree(uint32(g)) == 0 {
			out = append(out, uint32(g))
		}
	}
	return out
}

// Phantoms returns GIDs that are referenced but not present anywhere.
func (u *Unified) Phantoms() []uint32 {
	var out []uint32
	for g, present := range u.Present {
		if !present {
			out = append(out, uint32(g))
		}
	}
	return out
}

// Build constructs the bidirected CSR graph from the merged edges.
func (u *Unified) Build(workers int) *graph.Bidirected {
	return graph.NewBidirected(u.N(), u.Edges, workers)
}
