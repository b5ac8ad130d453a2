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
	// Claims[g] lists every physical inode claiming FID g; more than one
	// entry is itself an inconsistency (duplicate identity).
	Claims [][]ObjectLoc
	// Issues carries forward the scanners' structural parse problems.
	Issues []string

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

// MergeWorkers combines partial graphs into a unified graph using
// workers cores (<= 0 = GOMAXPROCS). Partials must be passed in a fixed
// order (conventionally MDT first, then OSTs by index) for a
// deterministic GID space. The result is identical for every worker
// count: GIDs are assigned sequentially in first-appearance order of the
// canonical stream (every part's Objects in part order, then every
// part's Edges, Src before Dst), and the one parallel pass writes
// disjoint slots.
func MergeWorkers(parts []*scanner.Partial, workers int) *Unified {
	segs := make([]segment, len(parts))
	for i, p := range parts {
		segs[i] = segment{label: p.ServerLabel, objects: p.Objects, edges: p.Edges, issues: p.Issues}
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
	// edge list starts inside some segment and may span several.
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
				src, ok := tab.get(edges.Src(j))
				if !ok {
					src = unresolved
					phantoms.Store(true)
				}
				dst, ok := tab.get(edges.Dst(j))
				if !ok {
					dst = unresolved
					phantoms.Store(true)
				}
				out[k] = graph.Edge{Src: src, Dst: dst, Kind: edges.Kind(j)}
			}
		}
	})

	// (3) The unresolved endpoints are exactly the phantoms (none on a
	// clean cluster, which skips the pass). Every object precedes every
	// edge in the canonical stream, so interning them in edge order
	// completes the first-appearance numbering.
	for i := 0; i < len(segs) && phantoms.Load(); i++ {
		s := &segs[i]
		out := u.Edges[s.edgeOff:]
		for k := range s.edges.Len() {
			if e := &out[k]; e.Src == unresolved || e.Dst == unresolved {
				e.Src = tab.intern(s.edges.Src(k))
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

	// (4) Present/Types/Claims in one pass over the recorded object
	// GIDs: the first claim in canonical order fixes the type.
	u.Present = make([]bool, n)
	u.Types = make([]ldiskfs.FileType, n) // zero value is TypeFree
	counts := make([]uint32, n)
	for _, g := range objGID {
		counts[g]++
	}
	u.Claims = claimSlots(counts)
	k := 0
	for _, s := range segs {
		for i := range s.objects.Len() {
			o := s.objects.At(i)
			g := objGID[k]
			k++
			if !u.Present[g] {
				u.Present[g] = true
				u.Types[g] = o.Type
			}
			u.Claims[g] = append(u.Claims[g], ObjectLoc{Server: s.label, Ino: o.Ino})
		}
		for _, is := range s.issues {
			u.Issues = append(u.Issues, fmt.Sprintf("%s: %s", s.label, is))
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

// claimSlots carves one backing array into a cap-limited, empty claim
// list per vertex, so appending the counted claims neither reallocates
// nor spills into a neighbour. Unclaimed vertices keep a nil list.
func claimSlots(counts []uint32) [][]ObjectLoc {
	var total int
	for _, c := range counts {
		total += int(c)
	}
	backing := make([]ObjectLoc, total)
	claims := make([][]ObjectLoc, len(counts))
	off := 0
	for g, c := range counts {
		if c > 0 {
			claims[g] = backing[off : off : off+int(c)]
			off += int(c)
		}
	}
	return claims
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
// writes to it: Finish merges straight from the retained chunks, and
// only a caller that asks for Partials pays for their concatenation.
type Builder struct {
	mu      sync.Mutex
	order   []string
	accs    map[string]*builderAcc
	metrics *Metrics
}

type builderAcc struct {
	label  string
	chunks []*scanner.Chunk // retained in Seq order
	done   bool
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
// (the scanner and the wire stream both guarantee it). Only an accepted
// chunk counts into the intake counters.
func (b *Builder) Emit(c *scanner.Chunk) error {
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
	if acc.done {
		return fmt.Errorf("agg: chunk after final for server %q", c.ServerLabel)
	}
	if c.Seq != len(acc.chunks) {
		return fmt.Errorf("agg: server %q chunk out of order: got seq %d, want %d", c.ServerLabel, c.Seq, len(acc.chunks))
	}
	acc.chunks = append(acc.chunks, c)
	acc.done = c.Final
	if m != nil {
		m.Chunks.Inc()
		m.Objects.Add(int64(c.Objects.Len()))
		m.Edges.Add(int64(c.Edges.Len()))
		m.Issues.Add(int64(len(c.Issues)))
	}
	return nil
}

// partial concatenates a completed stream's chunks into a fresh Partial.
func (a *builderAcc) partial() *scanner.Partial {
	var ps scanner.PartialSink
	for _, c := range a.chunks {
		_ = ps.Emit(c)
	}
	return ps.Partial()
}

// completed returns the streams that have seen their final chunk, in
// canonical order, and the labels of those still open. Chunks already
// received on an incomplete stream are left out wholesale: merging a
// prefix would make the unified graph depend on where in the stream
// the failure landed, and degraded runs must stay deterministic for a
// given set of surviving servers.
func (b *Builder) completed() (done []*builderAcc, missing []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, l := range b.order {
		if acc := b.accs[l]; acc.done {
			done = append(done, acc)
		} else {
			missing = append(missing, l)
		}
	}
	return done, missing
}

// merge merges the given completed streams straight from their chunks.
func (b *Builder) merge(done []*builderAcc, workers int) *Unified {
	var segs []segment
	for _, acc := range done {
		for _, c := range acc.chunks {
			segs = append(segs, segment{label: acc.label, objects: c.Objects, edges: c.Edges, issues: c.Issues})
		}
	}
	return mergeObserved(segs, workers, b.metrics)
}

// Partials returns the reassembled per-server partial graphs in
// canonical order. It errors if any stream is still open.
func (b *Builder) Partials() ([]*scanner.Partial, error) {
	parts, missing := b.CompletedPartials()
	if len(missing) > 0 {
		return nil, fmt.Errorf("agg: server %q stream incomplete", missing[0])
	}
	return parts, nil
}

// Finish merges every stream into the unified graph using workers cores
// (<= 0 = GOMAXPROCS). It errors if any stream is still open.
func (b *Builder) Finish(workers int) (*Unified, error) {
	done, missing := b.completed()
	if len(missing) > 0 {
		return nil, fmt.Errorf("agg: server %q stream incomplete", missing[0])
	}
	return b.merge(done, workers), nil
}

// CompletedPartials returns the partials of every stream that has seen
// its final chunk, in canonical order, plus the labels of the streams
// still open — the degraded-mode split when a scanner crashed or missed
// its deadline. Each call concatenates afresh: the partials are the
// caller's to modify.
func (b *Builder) CompletedPartials() ([]*scanner.Partial, []string) {
	done, missing := b.completed()
	parts := make([]*scanner.Partial, len(done))
	for i, acc := range done {
		parts[i] = acc.partial()
	}
	return parts, missing
}

// FinishCompleted merges only the completed streams (degraded mode),
// returning the unified graph built from the survivors and the labels
// of the servers whose streams never finished. It errors when no stream
// completed at all — there is nothing to degrade to.
func (b *Builder) FinishCompleted(workers int) (*Unified, []string, error) {
	done, missing := b.completed()
	if len(done) == 0 {
		return nil, missing, fmt.Errorf("agg: no scanner stream completed (missing: %v)", missing)
	}
	return b.merge(done, workers), missing, nil
}

// DuplicateClaims returns the GIDs claimed by more than one inode —
// duplicate-identity inconsistencies (paper Table I, double reference).
func (u *Unified) DuplicateClaims() []uint32 {
	var out []uint32
	for g, c := range u.Claims {
		if len(c) > 1 {
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
