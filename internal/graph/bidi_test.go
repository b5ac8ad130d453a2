package graph

import (
	"cmp"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func fig3Bidi(t *testing.T) *Bidirected {
	t.Helper()
	edges := []Edge{
		{0, 1, KindDirent},
		{0, 2, KindDirent},
		{1, 0, KindLinkEA},
		{3, 1, KindFilterFID},
	}
	return NewBidirected(4, edges, 0)
}

func TestBidirectedPairing(t *testing.T) {
	b := fig3Bidi(t)
	// a<->b paired; a->c and d->b unpaired.
	st := b.Stats(0)
	if st.PairedEdges != 2 || st.UnpairedEdges != 2 {
		t.Fatalf("paired=%d unpaired=%d, want 2/2", st.PairedEdges, st.UnpairedEdges)
	}
	if st.Sinks != 1 { // c has no out-edges
		t.Errorf("sinks = %d, want 1", st.Sinks)
	}
	if st.Sources != 1 { // d has no in-edges
		t.Errorf("sources = %d, want 1", st.Sources)
	}
	if st.Vertices != 4 || st.Edges != 4 {
		t.Errorf("V=%d E=%d", st.Vertices, st.Edges)
	}
}

func TestBidirectedUnpairedSets(t *testing.T) {
	b := fig3Bidi(t)
	for v, want := range map[uint32]bool{0: true, 1: true, 2: true, 3: true} {
		if got := b.HasUnpairedEdge(v); got != want {
			t.Errorf("HasUnpairedEdge(%d) = %v, want %v", v, got, want)
		}
	}
	if got := b.UnpairedOut(0); !reflect.DeepEqual(got, []uint32{2}) {
		t.Errorf("UnpairedOut(a) = %v, want [2]", got)
	}
	if got := b.UnpairedOut(3); !reflect.DeepEqual(got, []uint32{1}) {
		t.Errorf("UnpairedOut(d) = %v, want [1]", got)
	}
	if got := b.UnpairedIncoming(2); !reflect.DeepEqual(got, []uint32{0}) {
		t.Errorf("UnpairedIncoming(c) = %v, want [0]", got)
	}
	if got := b.UnpairedIncoming(1); !reflect.DeepEqual(got, []uint32{3}) {
		t.Errorf("UnpairedIncoming(b) = %v, want [3]", got)
	}
	if got := b.UnpairedOut(1); len(got) != 0 {
		t.Errorf("UnpairedOut(b) = %v, want empty", got)
	}
}

func TestBidirectedInCounts(t *testing.T) {
	b := fig3Bidi(t)
	// a: one paired in-edge (b->a); b: one paired (a->b) + one unpaired
	// (d->b); c: one unpaired (a->c); d: none.
	wantPaired := []int32{1, 1, 0, 0}
	wantUnpaired := []int32{0, 1, 1, 0}
	if !reflect.DeepEqual(b.PairedIn, wantPaired) {
		t.Errorf("PairedIn = %v, want %v", b.PairedIn, wantPaired)
	}
	if !reflect.DeepEqual(b.UnpairedIn, wantUnpaired) {
		t.Errorf("UnpairedIn = %v, want %v", b.UnpairedIn, wantUnpaired)
	}
}

// TestPairingSymmetryProperty: an edge u->v is paired exactly when the
// graph also contains v->u, and rev-pairing mirrors forward-pairing.
func TestPairingSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		edges := randomEdges(r, n, r.Intn(200))
		b := NewBidirected(n, edges, 1+r.Intn(4))
		for v := 0; v < n; v++ {
			u := uint32(v)
			s, e := b.Fwd.EdgeRange(u)
			for i := s; i < e; i++ {
				want := b.Fwd.HasEdge(b.Fwd.Targets[i], u)
				if (b.FwdPaired[i] == 1) != want {
					return false
				}
			}
			s, e = b.Rev.EdgeRange(u)
			for i := s; i < e; i++ {
				want := b.Fwd.HasEdge(u, b.Rev.Targets[i])
				if (b.RevPaired[i] == 1) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSymmetricGraphFullyPaired: a graph containing v->u for every u->v
// has no unpaired edges and no S_chk members.
func TestSymmetricGraphFullyPaired(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		var edges []Edge
		for i := 0; i < r.Intn(100); i++ {
			u, v := uint32(r.Intn(n)), uint32(r.Intn(n))
			edges = append(edges, Edge{u, v, KindDirent}, Edge{v, u, KindLinkEA})
		}
		b := NewBidirected(n, edges, 0)
		st := b.Stats(0)
		if st.UnpairedEdges != 0 {
			return false
		}
		for v := 0; v < n; v++ {
			if b.HasUnpairedEdge(uint32(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestInCountsMatchRevDegrees: PairedIn+UnpairedIn equals in-degree.
func TestInCountsMatchRevDegrees(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		edges := randomEdges(r, n, r.Intn(250))
		b := NewBidirected(n, edges, 3)
		for v := 0; v < n; v++ {
			if int(b.PairedIn[v]+b.UnpairedIn[v]) != b.InDegree(uint32(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestNewBidirectedAllocs: a build allocates the Bidirected's own arrays
// and one W×n array of 32-bit count/cursors, which the forward build and
// every transpose share, and next to nothing else — on both build paths.
// The sorted graph has one hub row longer than insertionSortMax, so the
// sort's packed-key buffer is in play too; the long-rowed one is ordered
// by two transposes.
func TestNewBidirectedAllocs(t *testing.T) {
	const n, workers = 50000, 2
	r := rand.New(rand.NewSource(5))
	sorted := randomEdges(r, n, 200000)
	for i := range 4000 {
		sorted = append(sorted, Edge{Src: 7, Dst: uint32(i * 11), Kind: EdgeKind(i % 5)})
	}
	long := randomEdges(r, n, 80000)
	for i := range 120000 {
		long = append(long, Edge{Src: uint32(i % 2000 * 25), Dst: uint32(r.Intn(n)), Kind: EdgeKind(i % 5)})
	}
	for _, g := range []struct {
		name       string
		edges      []Edge
		transposes bool
	}{{"sorted", sorted, false}, {"long-rowed", long, true}} {
		if longRowedEdges(n, g.edges) != g.transposes {
			t.Fatalf("%s: routed to the transposes = %v, want %v", g.name, !g.transposes, g.transposes)
		}
		edges := g.edges
		m := len(edges)
		NewBidirected(n, edges, workers) // warm-up
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b := NewBidirected(n, edges, workers)
		runtime.ReadMemStats(&after)
		own := uint64(b.MemoryBytes())
		counts := uint64(csrCountWorkers(n, m, workers) * n * 4)
		if got, limit := after.TotalAlloc-before.TotalAlloc, (own+counts)*21/20+64<<10; got > limit {
			t.Fatalf("%s: NewBidirected allocated %d bytes, ceiling %d (own arrays %d + one count array %d)", g.name, got, limit, own, counts)
		}

		// A rebuild into a graph with room for the new one — a smaller
		// graph, then the original again — writes every array in place,
		// the count array and the key buffers included: what is left is
		// the fan-out's closures and goroutines and the per-build split
		// points.
		var smaller []Edge
		for _, e := range edges[:m-1000] {
			if e.Src < n-10 && e.Dst < n-10 {
				smaller = append(smaller, e)
			}
		}
		for _, h := range []struct {
			n     int
			edges []Edge
		}{{n - 10, smaller}, {n, edges}} {
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.Rebuild(h.n, h.edges, true, workers)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
				t.Fatalf("%s: Rebuild of %d vertices into a graph with room allocated %d bytes, want no array (< 16 KiB)", g.name, h.n, got)
			}
			if !reflect.DeepEqual(withoutScratch(b), withoutScratch(NewBidirected(h.n, h.edges, workers))) {
				t.Fatalf("%s: Rebuild of %d vertices differs from NewBidirected", g.name, h.n)
			}
		}
	}
}

func TestUntypedBidirected(t *testing.T) {
	edges := []Edge{{0, 1, 0}, {1, 0, 0}, {2, 0, 0}}
	b := NewBidirectedUntyped(3, edges, 0)
	if b.Fwd.Kinds != nil || b.Rev.Kinds != nil {
		t.Error("untyped graph should not allocate kind arrays")
	}
	st := b.Stats(0)
	if st.PairedEdges != 2 || st.UnpairedEdges != 1 {
		t.Errorf("stats: %+v", st)
	}
	if b.MemoryBytes() <= 0 {
		t.Error("MemoryBytes should be positive")
	}
}

// referenceCSR builds a CSR the slow obvious way — sort the whole edge
// list by (src, dst, kind), then lay rows out in order — sharing no code
// with BuildCSR or Transpose.
func referenceCSR(n int, edges []Edge, keepKinds bool) *CSR {
	c := &CSR{N: n, Offsets: make([]int64, n+1)}
	if len(edges) == 0 {
		return c
	}
	c.Targets = make([]uint32, len(edges))
	if keepKinds {
		c.Kinds = make([]EdgeKind, len(edges))
	}
	for i, e := range sortedEdges(edges) {
		c.Offsets[e.Src+1]++
		c.Targets[i] = e.Dst
		if keepKinds {
			c.Kinds[i] = e.Kind
		}
	}
	for v := 0; v < n; v++ {
		c.Offsets[v+1] += c.Offsets[v]
	}
	return c
}

// referenceBidirected is the builder NewBidirected replaced, kept as the
// test oracle: a CSR of the edge list, a CSR of the reversed edge list,
// and one HasEdge binary search per edge and orientation.
func referenceBidirected(n int, edges []Edge, keepKinds bool) *Bidirected {
	reversed := make([]Edge, len(edges))
	for i, e := range edges {
		reversed[i] = Edge{Src: e.Dst, Dst: e.Src, Kind: e.Kind}
	}
	fwd, rev := referenceCSR(n, edges, keepKinds), referenceCSR(n, reversed, keepKinds)
	b := &Bidirected{
		Fwd:        fwd,
		Rev:        rev,
		FwdPaired:  make([]uint8, len(edges)),
		RevPaired:  make([]uint8, len(edges)),
		PairedIn:   make([]int32, n),
		UnpairedIn: make([]int32, n),
	}
	for v := 0; v < n; v++ {
		u := uint32(v)
		s, e := fwd.EdgeRange(u)
		for i := s; i < e; i++ {
			if fwd.HasEdge(fwd.Targets[i], u) {
				b.FwdPaired[i] = 1
			}
		}
		s, e = rev.EdgeRange(u)
		for i := s; i < e; i++ {
			if fwd.HasEdge(u, rev.Targets[i]) {
				b.RevPaired[i] = 1
				b.PairedIn[v]++
			} else {
				b.UnpairedIn[v]++
				b.unpaired++
			}
		}
	}
	return b
}

// withoutScratch drops the count array a build keeps for the next
// Rebuild, which is no part of the graph, so that b compares field for
// field with the reference.
func withoutScratch(b *Bidirected) *Bidirected {
	c := *b
	c.scratch = buildScratch{}
	return &c
}

// edgeWalkStats is Stats computed the long way, from the per-edge flags.
func edgeWalkStats(b *Bidirected) Stats {
	st := Stats{Vertices: b.N(), Edges: b.Fwd.NumEdges()}
	for _, p := range b.FwdPaired {
		if p == 1 {
			st.PairedEdges++
		} else {
			st.UnpairedEdges++
		}
	}
	for v := 0; v < b.N(); v++ {
		if b.OutDegree(uint32(v)) == 0 {
			st.Sinks++
		}
		if b.InDegree(uint32(v)) == 0 {
			st.Sources++
		}
	}
	return st
}

// matchesReference reports whether both constructors reproduce the
// reference structure exactly at workers 1, 2, 3 and 8, and Stats agrees
// with the edge walk.
func matchesReference(n int, edges []Edge) bool {
	return matchesReferenceAt(n, edges, 1, 2, 3, 8)
}

// matchesReferenceAt is matchesReference at the given worker counts.
func matchesReferenceAt(n int, edges []Edge, workers ...int) bool {
	typed, untyped := referenceBidirected(n, edges, true), referenceBidirected(n, edges, false)
	want := edgeWalkStats(typed)
	for _, w := range workers {
		b := NewBidirected(n, edges, w)
		if !reflect.DeepEqual(withoutScratch(b), typed) || !reflect.DeepEqual(withoutScratch(NewBidirectedUntyped(n, edges, w)), untyped) {
			return false
		}
		if b.Stats(w) != want {
			return false
		}
	}
	return true
}

// TestBidirectedMatchesReferenceMultigraphs: random multigraphs with
// parallel edges of equal and of different kinds, self-loops, isolated
// vertices, and the n = 0 and n = 1 corners.
func TestBidirectedMatchesReferenceMultigraphs(t *testing.T) {
	if !matchesReference(0, nil) || !matchesReference(1, nil) || !matchesReference(5, nil) {
		t.Fatal("edgeless graph diverges from reference")
	}
	if !matchesReference(1, []Edge{{0, 0, KindDirent}, {0, 0, KindDirent}, {0, 0, KindLinkEA}}) {
		t.Fatal("single-vertex self-loops diverge from reference")
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		// Endpoints come from the lower part of the ID space only, so the
		// rest stays isolated; a small space also makes reciprocal pairs,
		// self-loops and equal-kind duplicates common.
		edges := randomEdges(r, 1+r.Intn(n), r.Intn(250))
		for i := r.Intn(20); i > 0 && len(edges) > 0; i-- {
			e := edges[r.Intn(len(edges))]
			edges = append(edges, e, Edge{e.Src, e.Dst, e.Kind.Counterpart()}, Edge{e.Src, e.Src, e.Kind})
		}
		return matchesReference(n, edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBidirectedMatchesReferenceShapes: the degree shapes that steer the
// build down its different paths.
func TestBidirectedMatchesReferenceShapes(t *testing.T) {
	r := rand.New(rand.NewSource(11))

	// R-MAT scale 10, edge factor 8: hub rows far longer than
	// insertionSortMax, holding most of the edges, so the build orders
	// the rows by two transposes.
	const scale = 10
	rmat := rmatEdges(r, scale, 8)
	if !longRowedEdges(1<<scale, rmat) {
		t.Fatal("R-MAT scale 10 is routed to the sort, want the transposes")
	}

	// Fully symmetric: every edge answered, nothing unpaired.
	var symmetric []Edge
	for i := 0; i < 400; i++ {
		u, v := uint32(r.Intn(120)), uint32(r.Intn(120))
		symmetric = append(symmetric, Edge{u, v, KindDirent}, Edge{v, u, KindLinkEA})
	}

	// Star: vertex 0 owns every edge, so every edge-balanced split
	// degenerates to one loaded range and the rest empty.
	var star []Edge
	for v := 0; v < 300; v++ {
		star = append(star, Edge{0, uint32(v), KindLOVEA})
	}
	star = append(star, star[17], star[17])

	for _, g := range []struct {
		name  string
		n     int
		edges []Edge
	}{
		{"rmat", 1 << scale, rmat},
		{"symmetric", 120, symmetric},
		{"star", 300, star},
	} {
		if !matchesReference(g.n, g.edges) {
			t.Errorf("%s: build diverges from reference", g.name)
		}
	}
	if st := NewBidirected(120, symmetric, 3).Stats(3); st.UnpairedEdges != 0 || st.PairedEdges != int64(len(symmetric)) {
		t.Errorf("symmetric graph: %+v, want every edge paired", st)
	}
	if got := len(NewBidirected(300, star, 8).Fwd.Neighbors(0)); got != len(star) {
		t.Errorf("star: hub keeps %d of %d parallel edges", got, len(star))
	}
}

// rmatEdges draws factor<<scale R-MAT edges with the Graph500 quadrant
// probabilities (0.57, 0.19, 0.19, 0.05), each with a random kind.
func rmatEdges(r *rand.Rand, scale, factor int) []Edge {
	edges := make([]Edge, factor<<scale)
	for i := range edges {
		var src, dst uint32
		for bit := 0; bit < scale; bit++ {
			switch p := r.Float64(); {
			case p < 0.57:
			case p < 0.76:
				dst |= 1 << bit
			case p < 0.95:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		edges[i] = Edge{src, dst, EdgeKind(r.Intn(5))}
	}
	return edges
}

// metadataShaped is the merged graph of an aged cluster in miniature: a
// root holding dirs directories, each holding 33 to 96 files striped
// over 1 to 8 objects, with a dirent and a LinkEA per namespace link and
// a LOVEA and a filter-fid per stripe. Ids follow the merge's order
// (directories, then files, then objects) and the edges come source-
// ordered, as the merge lists them. Only directory rows are longer than
// insertionSortMax, which puts about a tenth of the edges in long rows,
// as on the benchmark's 24 000-MDT-inode clusters.
func metadataShaped(r *rand.Rand, dirs int) (int, []Edge) {
	type file struct{ dir, stripes int }
	var files []file
	for d := 1; d <= dirs; d++ {
		for range 33 + r.Intn(64) {
			files = append(files, file{d, 1 + r.Intn(8)})
		}
	}
	firstFile := 1 + dirs
	firstObject := firstFile + len(files)
	n := firstObject
	for _, f := range files {
		n += f.stripes
	}
	out := make([][]Edge, n)
	link := func(u, v int, kind EdgeKind) {
		out[u] = append(out[u], Edge{uint32(u), uint32(v), kind})
		out[v] = append(out[v], Edge{uint32(v), uint32(u), kind.Counterpart()})
	}
	for d := 1; d <= dirs; d++ {
		link(0, d, KindDirent)
	}
	obj := firstObject
	for i, f := range files {
		link(f.dir, firstFile+i, KindDirent)
		for range f.stripes {
			link(firstFile+i, obj, KindLOVEA)
			obj++
		}
	}
	var edges []Edge
	for _, row := range out {
		edges = append(edges, row...)
	}
	return n, edges
}

// longRowedEdges reports whether Rebuild orders the rows of edges over n
// vertices by two transposes rather than a sort.
func longRowedEdges(n int, edges []Edge) bool {
	c := new(CSR)
	c.scatter(n, edges, false, 1, &buildScratch{})
	return longRowed(c)
}

// withDescendingParallels appends, for every tenth edge, two parallel
// copies in descending kind order, which edge order alone would leave
// descending in a row.
func withDescendingParallels(edges []Edge) []Edge {
	out := slices.Clone(edges)
	for i := 0; i < len(edges); i += 10 {
		e := edges[i]
		out = append(out, Edge{e.Src, e.Dst, KindFilterFID}, Edge{e.Src, e.Dst, KindDirent})
	}
	return out
}

// bySource returns edges stably sorted by source: parallel edges keep
// their edge-list order.
func bySource(edges []Edge) []Edge {
	out := slices.Clone(edges)
	slices.SortStableFunc(out, func(a, b Edge) int { return cmp.Compare(a.Src, b.Src) })
	return out
}

// TestBidirectedBuildPaths: Rebuild sorts the rows of a graph whose
// edges sit mostly in short rows and orders those of a long-rowed one by
// two transposes. Both paths reproduce the reference at every worker
// count, from source-ordered and from shuffled edge lists, with hub rows
// past insertionSortMax and parallel edges listed in descending kind
// order. The benchmark's two graph shapes take the paths they are meant
// to: R-MAT-16×8 the transposes, the metadata graph the sort.
func TestBidirectedBuildPaths(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	if !longRowedEdges(1<<16, rmatEdges(r, 16, 8)) {
		t.Error("R-MAT-16×8 is routed to the sort, want the transposes")
	}
	if n, edges := metadataShaped(r, 360); longRowedEdges(n, edges) {
		t.Errorf("metadata-shaped graph of %d vertices is routed to the transposes, want the sort", n)
	}

	metaN, meta := metadataShaped(r, 6)
	var hubs []Edge // 12 hubs of 40 to 80 edges, beside 300 short-row edges
	for h := range 12 {
		for range 40 + r.Intn(41) {
			hubs = append(hubs, Edge{uint32(h * 25), uint32(r.Intn(300)), EdgeKind(r.Intn(5))})
		}
	}
	hubs = append(hubs, randomEdges(r, 300, 300)...)
	for _, g := range []struct {
		name       string
		n          int
		edges      []Edge
		transposes bool
	}{
		{"metadata", metaN, withDescendingParallels(meta), false},
		{"hubs", 300, withDescendingParallels(hubs), true},
	} {
		shuffled := slices.Clone(g.edges)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, order := range []struct {
			name  string
			edges []Edge
		}{{"source-ordered", bySource(g.edges)}, {"shuffled", shuffled}} {
			if got := longRowedEdges(g.n, order.edges); got != g.transposes {
				t.Fatalf("%s, %s: routed to the transposes = %v, want %v", g.name, order.name, got, g.transposes)
			}
			if !matchesReference(g.n, order.edges) {
				t.Errorf("%s, %s: build diverges from reference", g.name, order.name)
			}
		}
	}
}

// fuzzGraph decodes a typed multigraph: the first byte sets n (1 to 64);
// a second byte of 128 or more adds a hub row of 33 to 96 edges, past
// insertionSortMax, whose edges come in parallel pairs, most of them in
// descending kind order;
// every further three bytes are one edge's source, target and kind.
func fuzzGraph(data []byte) (int, []Edge) {
	if len(data) == 0 {
		return 1, nil
	}
	n := 1 + int(data[0])%64
	data = data[1:]
	var edges []Edge
	if len(data) > 0 {
		if h := data[0]; h >= 128 {
			for i := range 33 + int(h%64) {
				edges = append(edges, Edge{uint32(int(h) % n), uint32(i / 2 % n), EdgeKind(4 - i%5)})
			}
		}
		data = data[1:]
	}
	for ; len(data) >= 3; data = data[3:] {
		edges = append(edges, Edge{uint32(int(data[0]) % n), uint32(int(data[1]) % n), EdgeKind(data[2] % 5)})
	}
	return n, edges
}

// FuzzBidirectedMatchesReference: NewBidirected and NewBidirectedUntyped
// reproduce referenceBidirected at workers 1, 2 and 3 on any decoded
// multigraph. One seed is routed to the sort and one to the transposes,
// so both build paths run on every test pass.
func FuzzBidirectedMatchesReference(f *testing.F) {
	short := []byte{19, 0}
	for i := range 60 {
		short = append(short, byte(i*7), byte(i*13), byte(i))
	}
	hub := []byte{49, 200, 3, 4, 1, 4, 3, 2, 4, 3, 3, 10, 11, 0}
	seeds := [][]byte{short, hub, {}, {0}, {5, 255}}
	if n, edges := fuzzGraph(short); longRowedEdges(n, edges) {
		f.Fatal("the short-row seed is routed to the transposes")
	}
	if n, edges := fuzzGraph(hub); !longRowedEdges(n, edges) {
		f.Fatal("the hub seed is routed to the sort")
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3<<12 {
			return
		}
		n, edges := fuzzGraph(data)
		if !matchesReferenceAt(n, edges, 1, 2, 3) {
			t.Fatalf("n=%d, %d edges: build diverges from reference", n, len(edges))
		}
	})
}

// BenchmarkBidirected builds the benchmark's two graph shapes: a
// source-ordered metadata graph the size of the 24 000-MDT-inode
// cluster's, typed as the checker builds it, which takes the sort; and
// R-MAT-16×8, untyped as rank_rmat builds it, which takes the transposes.
func BenchmarkBidirected(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	metaN, meta := metadataShaped(r, 360)
	for _, g := range []struct {
		name  string
		n     int
		edges []Edge
		typed bool
	}{
		{"metadata", metaN, meta, true},
		{"rmat16x8", 1 << 16, rmatEdges(r, 16, 8), false},
	} {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				new(Bidirected).Rebuild(g.n, g.edges, g.typed, 0)
			}
			b.ReportMetric(float64(len(g.edges)), "edges/op")
		})
	}
}
