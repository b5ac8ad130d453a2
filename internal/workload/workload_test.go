package workload

import (
	"math/rand"
	"testing"

	"faultyrank/internal/checker"
	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

func newCluster(t testing.TB) *lustre.Cluster {
	t.Helper()
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 8, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSampleFileSizeDistribution checks the published quantiles the
// generator targets: ~86% under 1 MiB, ~95% under 2 MiB.
func TestSampleFileSizeDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const n = 100000
	var under1M, under2M int
	for i := 0; i < n; i++ {
		s := SampleFileSize(r)
		if s <= 0 {
			t.Fatalf("non-positive size %d", s)
		}
		if s < 1<<20 {
			under1M++
		}
		if s < 2<<20 {
			under2M++
		}
	}
	f1 := float64(under1M) / n
	f2 := float64(under2M) / n
	if f1 < 0.82 || f1 > 0.90 {
		t.Errorf("P(<1MiB) = %.3f, want ~0.86", f1)
	}
	if f2 < 0.92 || f2 > 0.975 {
		t.Errorf("P(<2MiB) = %.3f, want ~0.95", f2)
	}
}

func TestPopulateBuildsConsistentTree(t *testing.T) {
	c := newCluster(t)
	st, err := Populate(c, DefaultTreeSpec(300, 7))
	if err != nil {
		t.Fatal(err)
	}
	if st.Files != 300 {
		t.Fatalf("files = %d", st.Files)
	}
	if st.Dirs < 5 {
		t.Errorf("dirs = %d — tree did not branch", st.Dirs)
	}
	if st.Objects < st.Files {
		t.Errorf("objects = %d < files", st.Objects)
	}
	// A populated cluster must be fully consistent.
	res, err := checker.Run(checker.ClusterImages(c), checker.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.UnpairedEdges != 0 || len(res.Findings) != 0 {
		t.Fatalf("populate produced an inconsistent cluster: %d unpaired, %d findings",
			res.Stats.UnpairedEdges, len(res.Findings))
	}
}

func TestPopulateDeterministic(t *testing.T) {
	a, b := newCluster(t), newCluster(t)
	sa, err := Populate(a, DefaultTreeSpec(150, 3))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Populate(b, DefaultTreeSpec(150, 3))
	if err != nil {
		t.Fatal(err)
	}
	if *sa != *sb {
		t.Fatalf("same seed, different stats: %+v vs %+v", sa, sb)
	}
	if a.TotalInodes() != b.TotalInodes() {
		t.Error("same seed, different inode counts")
	}
}

func TestPopulateValidation(t *testing.T) {
	c := newCluster(t)
	if _, err := Populate(c, TreeSpec{Files: -1}); err == nil {
		t.Error("negative file count accepted")
	}
	st, err := Populate(c, TreeSpec{Files: 0, Seed: 1})
	if err != nil || st.Files != 0 {
		t.Errorf("zero files: %+v %v", st, err)
	}
}

func TestAgeReachesTargetAndStaysConsistent(t *testing.T) {
	c := newCluster(t)
	target := int64(600)
	alive, err := Age(c, AgeSpec{TargetMDTInodes: target, ChurnFraction: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if c.MDTInodes() < target {
		t.Fatalf("mdt inodes = %d < target %d", c.MDTInodes(), target)
	}
	if len(alive) == 0 {
		t.Fatal("no files alive")
	}
	// Churned clusters must still be consistent.
	res, err := checker.Run(checker.ClusterImages(c), checker.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.UnpairedEdges != 0 || len(res.Findings) != 0 {
		t.Fatalf("aging broke consistency: %d unpaired, %d findings",
			res.Stats.UnpairedEdges, len(res.Findings))
	}
	// ...and structurally sound at the substrate level.
	for label, img := range c.Images() {
		if errs := img.Validate(); len(errs) != 0 {
			t.Fatalf("%s: image invalid after aging: %v", label, errs)
		}
	}
	// Alive paths actually resolve.
	for _, p := range alive[:10] {
		if _, err := c.Stat(p); err != nil {
			t.Errorf("alive path %s: %v", p, err)
		}
	}
}

func TestAgeValidation(t *testing.T) {
	c := newCluster(t)
	if _, err := Age(c, AgeSpec{TargetMDTInodes: 10, ChurnFraction: 1.5}); err == nil {
		t.Error("bad churn accepted")
	}
}

func edgesInRange(t *testing.T, edges []graph.Edge, n int) {
	t.Helper()
	for _, e := range edges {
		if int(e.Src) >= n || int(e.Dst) >= n {
			t.Fatalf("edge %v out of range %d", e, n)
		}
	}
}

func TestAmazonLikeShape(t *testing.T) {
	n := 5000
	edges := AmazonLike(n, 12, 11)
	if len(edges) < n*6 {
		t.Fatalf("too few edges: %d", len(edges))
	}
	edgesInRange(t, edges, n)
	// Heavy reciprocity: a majority of edges should be paired.
	b := graph.NewBidirectedUntyped(n, edges, 0)
	st := b.Stats(0)
	if float64(st.PairedEdges)/float64(st.Edges) < 0.5 {
		t.Errorf("paired fraction %.2f too low for a co-purchase graph",
			float64(st.PairedEdges)/float64(st.Edges))
	}
}

func TestRoadNetLikeShape(t *testing.T) {
	w, h := 60, 50
	edges := RoadNetLike(w, h, 13)
	edgesInRange(t, edges, w*h)
	b := graph.NewBidirectedUntyped(w*h, edges, 0)
	st := b.Stats(0)
	// Road networks are symmetric and very low degree.
	if st.UnpairedEdges != 0 {
		t.Errorf("road net has %d unpaired edges", st.UnpairedEdges)
	}
	avgDeg := float64(st.Edges) / float64(w*h)
	if avgDeg < 1.5 || avgDeg > 4.5 {
		t.Errorf("avg degree %.2f outside road-net profile", avgDeg)
	}
}
