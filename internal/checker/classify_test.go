package checker

import (
	"fmt"
	"math/rand"
	"testing"

	"faultyrank/internal/agg"
	"faultyrank/internal/graph"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

// matchPhantomIdentityReference is matchPhantomIdentity as it was before
// it counted from the suspect's side: every phantom's referrers against
// the suspect's peers, O(N) per call. Kept verbatim as the oracle.
func matchPhantomIdentityReference(u *agg.Unified, b *graph.Bidirected, v uint32) (uint32, bool) {
	peers := make(map[uint32]bool)
	for _, w := range b.UnpairedOut(v) {
		peers[w] = true
	}
	for _, w := range b.UnpairedIncoming(v) {
		peers[w] = true
	}
	best, bestOverlap := uint32(0), 0
	for _, p := range u.Phantoms() {
		overlap := 0
		s, e := b.Rev.EdgeRange(p)
		for i := s; i < e; i++ {
			if peers[b.Rev.Targets[i]] {
				overlap++
			}
		}
		if overlap > bestOverlap {
			best, bestOverlap = p, overlap
		}
	}
	return best, bestOverlap > 0
}

// sameIdentityMatches holds matchPhantomIdentity to the reference on
// every vertex of the graph, not just the suspects a run happens to
// raise, and returns how many vertices matched a phantom.
func sameIdentityMatches(t *testing.T, what string, u *agg.Unified, b *graph.Bidirected) (matched int) {
	t.Helper()
	for v := uint32(0); int(v) < b.N(); v++ {
		got, gotOK := matchPhantomIdentity(u, b, v)
		want, wantOK := matchPhantomIdentityReference(u, b, v)
		if got != want || gotOK != wantOK {
			t.Fatalf("%s: vertex %d matched phantom %d (%v), reference says %d (%v)", what, v, got, gotOK, want, wantOK)
		}
		if gotOK {
			matched++
		}
	}
	return matched
}

// TestMatchPhantomIdentityAgainstReference: all eight Fig. 7 scenarios at
// once, one per region as internal/campaign plants them, over the
// campaign's seeds; then the cases real clusters rarely produce — two
// phantoms named equally often (the lower GID wins), a peer that names a
// phantom on several edges (each counts), a peer on both sides of the
// suspect (counted once) — by hand and on random graphs.
func TestMatchPhantomIdentityAgainstReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		c, err := lustre.NewCluster(lustre.Config{
			NumOSTs: 8, StripeSize: 64 << 10, StripeCount: -1,
			Geometry: ldiskfs.CompactGeometry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		const files = 6
		for s := inject.Scenario(0); s < inject.NumScenarios; s++ {
			region := fmt.Sprintf("/region%02d", s)
			if err := c.MkdirAll(region); err != nil {
				t.Fatal(err)
			}
			for f := 0; f < files; f++ {
				if _, err := c.Create(fmt.Sprintf("%s/f%02d", region, f), 3*64<<10); err != nil {
					t.Fatal(err)
				}
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for s := inject.Scenario(0); s < inject.NumScenarios; s++ {
			target := fmt.Sprintf("/region%02d/f%02d", s, rng.Intn(files))
			if _, err := inject.Inject(c, s, target); err != nil {
				t.Fatalf("seed %d: inject %v: %v", seed, s, err)
			}
		}
		res, err := Run(ClusterImages(c), DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sameIdentityMatches(t, fmt.Sprintf("seed %d", seed), res.Unified, res.Graph) == 0 {
			t.Fatalf("seed %d: no vertex matched a phantom; the comparison is vacuous", seed)
		}
	}

	e := func(s, d uint32) graph.Edge { return graph.Edge{Src: s, Dst: d} }
	// Suspect 0 points at peers 1 and 2 without a point-back, and peer 3
	// points at it. Phantoms: 7 named twice by peer 1, 6 named once by 2
	// and once by 3 (a tie, and the lower GID), 8 named once, and 5 — lower
	// than all of them — named only by 4, which is no peer of 0.
	tie := []graph.Edge{
		e(0, 1), e(0, 2), e(3, 0),
		e(1, 7), e(1, 7), e(2, 6), e(3, 6), e(2, 8), e(4, 5),
	}
	u := &agg.Unified{Present: []bool{true, true, true, true, true, false, false, false, false}}
	b := graph.NewBidirected(len(u.Present), tie, 1)
	if p, ok := matchPhantomIdentity(u, b, 0); !ok || p != 6 {
		t.Fatalf("tie: matched phantom %d (%v), want 6", p, ok)
	}
	sameIdentityMatches(t, "tie", u, b)

	r := rand.New(rand.NewSource(21))
	for g := 0; g < 300; g++ {
		n := 4 + r.Intn(24)
		u := &agg.Unified{Present: make([]bool, n)}
		for v := range u.Present {
			u.Present[v] = r.Intn(3) != 0
		}
		var edges []graph.Edge
		for i := r.Intn(4 * n); i > 0; i-- {
			src, dst := uint32(r.Intn(n)), uint32(r.Intn(n))
			edges = append(edges, e(src, dst))
			if r.Intn(3) == 0 {
				edges = append(edges, e(dst, src), e(src, dst))
			}
		}
		sameIdentityMatches(t, fmt.Sprintf("random graph %d", g), u, graph.NewBidirected(n, edges, 1))
	}
}
