package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func edgeLess(a, b Edge) bool {
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	if a.Dst != b.Dst {
		return a.Dst < b.Dst
	}
	return a.Kind < b.Kind
}

func sortedEdges(es []Edge) []Edge {
	out := append([]Edge(nil), es...)
	sort.Slice(out, func(i, j int) bool { return edgeLess(out[i], out[j]) })
	return out
}

func randomEdges(rng *rand.Rand, n, m int) []Edge {
	es := make([]Edge, m)
	for i := range es {
		es[i] = Edge{
			Src:  uint32(rng.Intn(n)),
			Dst:  uint32(rng.Intn(n)),
			Kind: EdgeKind(rng.Intn(5)),
		}
	}
	return es
}

func TestBuildCSREmpty(t *testing.T) {
	c := BuildCSR(5, nil, true, 0)
	if c.NumEdges() != 0 {
		t.Fatalf("edges = %d, want 0", c.NumEdges())
	}
	for v := uint32(0); v < 5; v++ {
		if c.Degree(v) != 0 {
			t.Fatalf("degree(%d) = %d", v, c.Degree(v))
		}
	}
	if c.HasEdge(0, 1) {
		t.Fatal("HasEdge on empty graph")
	}
}

func TestBuildCSRZeroVertices(t *testing.T) {
	c := BuildCSR(0, nil, false, 0)
	if c.N != 0 || c.NumEdges() != 0 {
		t.Fatalf("unexpected: %+v", c)
	}
}

func TestBuildCSRSmall(t *testing.T) {
	edges := []Edge{
		{0, 1, KindDirent},
		{0, 2, KindDirent},
		{1, 0, KindLinkEA},
		{2, 0, KindLinkEA},
		{0, 1, KindLOVEA}, // parallel edge, different kind
	}
	c := BuildCSR(3, edges, true, 0)
	if got := c.Degree(0); got != 3 {
		t.Errorf("degree(0) = %d, want 3", got)
	}
	if !c.HasEdge(0, 1) || !c.HasEdge(1, 0) || c.HasEdge(1, 2) {
		t.Errorf("HasEdge wrong")
	}
	if got := c.Neighbors(0); !reflect.DeepEqual(got, []uint32{1, 1, 2}) {
		t.Errorf("neighbors(0) = %v, want [1 1 2] (parallel edge kept)", got)
	}
	// adjacency sorted with kind tiebreak
	adj := c.Neighbors(0)
	if !sort.SliceIsSorted(adj, func(i, j int) bool { return adj[i] < adj[j] }) {
		t.Errorf("adjacency not sorted: %v", adj)
	}
	if c.Kinds[c.Offsets[0]] != KindDirent || c.Kinds[c.Offsets[0]+1] != KindLOVEA {
		t.Errorf("kind tiebreak order wrong: %v", c.Kinds[c.Offsets[0]:c.Offsets[1]])
	}
}

func TestBuildCSROutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	BuildCSR(2, []Edge{{Src: 0, Dst: 5}}, false, 1)
}

// TestBuildCSROutOfRangePanicsOnCaller: with several workers the range
// check runs on worker goroutines, where a panic would kill the process;
// it must surface on the calling goroutine, naming the lowest bad edge
// whichever worker met one first.
func TestBuildCSROutOfRangePanicsOnCaller(t *testing.T) {
	edges := []Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 5}, {Src: 1, Dst: 0}, {Src: 7, Dst: 0}}
	for _, w := range []int{1, 2, 3, 4, 8} {
		func() {
			defer func() {
				want := "graph: edge 1 (0->5) out of range n=2"
				if got := recover(); got != want {
					t.Errorf("workers=%d: recovered %v, want %q", w, got, want)
				}
			}()
			BuildCSR(2, edges, false, w)
		}()
	}
}

// TestCSRRoundTripProperty: building a CSR preserves the edge multiset.
func TestCSRRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		m := r.Intn(300)
		edges := randomEdges(r, n, m)
		c := BuildCSR(n, edges, true, 1+r.Intn(8))
		return reflect.DeepEqual(sortedEdges(edges), sortedEdges(c.Edges()))
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestCSRHasEdgeMatchesNaive: HasEdge agrees with a brute-force scan.
func TestCSRHasEdgeMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		edges := randomEdges(r, n, r.Intn(150))
		c := BuildCSR(n, edges, false, 2)
		naive := make(map[[2]uint32]bool)
		for _, e := range edges {
			naive[[2]uint32{e.Src, e.Dst}] = true
		}
		for u := uint32(0); int(u) < n; u++ {
			for v := uint32(0); int(v) < n; v++ {
				if c.HasEdge(u, v) != naive[[2]uint32{u, v}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTransposeInvolution: transposing twice restores the CSR exactly
// (rows sorted by (target, kind) transpose to rows sorted by (source,
// kind) and back), and one transposition reverses the edge multiset.
func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		edges := randomEdges(r, n, r.Intn(200))
		reversed := make([]Edge, len(edges))
		for i, e := range edges {
			reversed[i] = Edge{Src: e.Dst, Dst: e.Src, Kind: e.Kind}
		}
		for _, keepKinds := range []bool{true, false} {
			c := BuildCSR(n, edges, keepKinds, 1+r.Intn(4))
			tr := c.Transpose(1 + r.Intn(4))
			if !reflect.DeepEqual(tr, BuildCSR(n, reversed, keepKinds, 1)) {
				return false
			}
			if !reflect.DeepEqual(tr.Transpose(1+r.Intn(4)), c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildDeterministicAcrossWorkers: CSR layout is identical for any
// worker count (adjacency sorting guarantees it).
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 200
	edges := randomEdges(r, n, 5000)
	base := BuildCSR(n, edges, true, 1)
	for _, w := range []int{2, 4, 8, 16} {
		c := BuildCSR(n, edges, true, w)
		if !reflect.DeepEqual(base.Offsets, c.Offsets) ||
			!reflect.DeepEqual(base.Targets, c.Targets) ||
			!reflect.DeepEqual(base.Kinds, c.Kinds) {
			t.Fatalf("workers=%d produced different CSR", w)
		}
	}
}

func TestEdgeKindStringsAndCounterparts(t *testing.T) {
	cases := []struct {
		k    EdgeKind
		s    string
		back EdgeKind
	}{
		{KindGeneric, "generic", KindGeneric},
		{KindDirent, "dirent", KindLinkEA},
		{KindLinkEA, "linkea", KindDirent},
		{KindLOVEA, "lovea", KindFilterFID},
		{KindFilterFID, "filterfid", KindLOVEA},
	}
	for _, c := range cases {
		if c.k.String() != c.s {
			t.Errorf("%d.String() = %q, want %q", c.k, c.k.String(), c.s)
		}
		if c.k.Counterpart() != c.back {
			t.Errorf("%v.Counterpart() = %v, want %v", c.k, c.k.Counterpart(), c.back)
		}
		if c.k != KindGeneric && c.k.Counterpart().Counterpart() != c.k {
			t.Errorf("counterpart not involutive for %v", c.k)
		}
	}
	if EdgeKind(200).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestMemoryBytes(t *testing.T) {
	edges := []Edge{{0, 1, KindDirent}, {1, 0, KindLinkEA}}
	c := BuildCSR(2, edges, true, 1)
	want := int64(3*8 + 2*4 + 2)
	if got := c.MemoryBytes(); got != want {
		t.Errorf("MemoryBytes = %d, want %d", got, want)
	}
}

// TestBuildCSRWorkerParity: the contention-free builder produces an
// identical CSR (offsets, targets, kinds) for every worker count, and
// the pre-sort scatter order is deterministic because each worker owns
// disjoint slots derived from the same chunking.
func TestBuildCSRWorkerParity(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	n := 257
	edges := make([]Edge, 10007)
	for i := range edges {
		edges[i] = Edge{
			Src:  uint32(r.Intn(n)),
			Dst:  uint32(r.Intn(n)),
			Kind: EdgeKind(r.Intn(5)),
		}
	}
	ref := BuildCSR(n, edges, true, 1)
	for _, w := range []int{2, 3, 8, 64} {
		got := BuildCSR(n, edges, true, w)
		if !reflect.DeepEqual(ref.Offsets, got.Offsets) {
			t.Fatalf("workers=%d: offsets diverge", w)
		}
		if !reflect.DeepEqual(ref.Targets, got.Targets) {
			t.Fatalf("workers=%d: targets diverge", w)
		}
		if !reflect.DeepEqual(ref.Kinds, got.Kinds) {
			t.Fatalf("workers=%d: kinds diverge", w)
		}
	}
}

// TestBuildCSRMoreWorkersThanEdges: degenerate chunkings (W > m, W = m)
// must not drop or duplicate edges.
func TestBuildCSRMoreWorkersThanEdges(t *testing.T) {
	edges := []Edge{{Src: 2, Dst: 0}, {Src: 0, Dst: 1}, {Src: 2, Dst: 1}}
	for _, w := range []int{3, 5, 100} {
		c := BuildCSR(3, edges, false, w)
		if c.NumEdges() != 3 {
			t.Fatalf("workers=%d: %d edges", w, c.NumEdges())
		}
		if !c.HasEdge(2, 0) || !c.HasEdge(0, 1) || !c.HasEdge(2, 1) {
			t.Fatalf("workers=%d: edges missing", w)
		}
	}
}
