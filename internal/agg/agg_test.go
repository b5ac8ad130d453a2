package agg

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
)

func scanCluster(t *testing.T, c *lustre.Cluster) []*scanner.Partial {
	t.Helper()
	var parts []*scanner.Partial
	// MDT first, then OSTs by index (deterministic GID space).
	p, err := scanner.ScanImage(c.MDT.Img, 0)
	if err != nil {
		t.Fatal(err)
	}
	parts = append(parts, p)
	for _, ost := range c.OSTs {
		p, err := scanner.ScanImage(ost.Img, 0)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	return parts
}

func smallCluster(t *testing.T) *lustre.Cluster {
	t.Helper()
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 2, StripeSize: 64 << 10,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.MkdirAll("/d")
	for i := 0; i < 3; i++ {
		c.Create(fmt.Sprintf("/d/f%d", i), 128<<10) // 2 objects each
	}
	return c
}

func TestMergeConsistentCluster(t *testing.T) {
	c := smallCluster(t)
	u := MergeWorkers(scanCluster(t, c), 0)
	// Vertices: root, /d, 3 files, 6 objects = 11, no phantoms.
	if u.N() != 11 {
		t.Fatalf("N = %d, want 11", u.N())
	}
	for g := 0; g < u.N(); g++ {
		if !u.Present[g] {
			t.Errorf("vertex %d (%v) is phantom in a consistent cluster", g, u.FID(uint32(g)))
		}
		if c := u.ClaimCount(uint32(g)); c != 1 {
			t.Errorf("vertex %d claims = %d", g, c)
		}
	}
	if d := u.DuplicateClaims(); len(d) != 0 {
		t.Errorf("duplicates: %v", d)
	}
	if p := u.Phantoms(); len(p) != 0 {
		t.Errorf("phantoms: %v", p)
	}
	b := u.Build(0)
	st := b.Stats(0)
	if st.UnpairedEdges != 0 {
		t.Errorf("unpaired edges = %d, want 0", st.UnpairedEdges)
	}
	if orphans := u.Orphans(b); len(orphans) != 0 {
		t.Errorf("orphans: %v", orphans)
	}
	// GID lookup round-trips.
	root, ok := u.GID(lustre.RootFID)
	if !ok || u.FID(root) != lustre.RootFID {
		t.Errorf("root GID lookup failed")
	}
	if u.Types[root] != ldiskfs.TypeDir {
		t.Errorf("root type = %v", u.Types[root])
	}
	if !u.FID(uint32(u.N() + 5)).IsZero() {
		t.Error("out-of-range FID lookup")
	}
}

func TestMergeDeterministic(t *testing.T) {
	c := smallCluster(t)
	parts := scanCluster(t, c)
	a := MergeWorkers(parts, 0)
	b := MergeWorkers(parts, 0)
	if a.N() != b.N() {
		t.Fatal("different N")
	}
	for g := 0; g < a.N(); g++ {
		if a.FIDs[g] != b.FIDs[g] {
			t.Fatalf("GID %d maps to %v vs %v", g, a.FIDs[g], b.FIDs[g])
		}
	}
}

func TestMergePhantomAndOrphan(t *testing.T) {
	c := smallCluster(t)
	// Orphan an object by rewriting one file's LOVEA to reference a
	// nonexistent object FID: creates one phantom + one orphan.
	ent, err := c.Stat("/d/f0")
	if err != nil {
		t.Fatal(err)
	}
	raw, _, _ := c.MDT.Img.GetXattr(ent.Ino, lustre.XattrLOV)
	layout, err := lustre.DecodeLOVEA(raw)
	if err != nil {
		t.Fatal(err)
	}
	orphanFID := layout.Stripes[0].ObjectFID
	layout.Stripes[0].ObjectFID = lustre.FID{Seq: 0xDEAD, Oid: 1}
	enc, _ := lustre.EncodeLOVEA(layout)
	c.MDT.Img.SetXattr(ent.Ino, lustre.XattrLOV, enc)

	u := MergeWorkers(scanCluster(t, c), 0)
	b := u.Build(0)
	phantoms := u.Phantoms()
	if len(phantoms) != 1 || u.FID(phantoms[0]) != (lustre.FID{Seq: 0xDEAD, Oid: 1}) {
		t.Fatalf("phantoms: %v", phantoms)
	}
	// The disowned object still points at f0, so it is not a graph
	// orphan (in-degree 0) — but the unpaired edge shows up.
	if st := b.Stats(0); st.UnpairedEdges != 2 {
		t.Errorf("unpaired = %d, want 2 (dangling + disowned)", st.UnpairedEdges)
	}
	og, ok := u.GID(orphanFID)
	if !ok {
		t.Fatal("orphan FID missing from graph")
	}
	if !u.Present[og] {
		t.Error("orphan should be present")
	}
}

func TestMergeDuplicateClaims(t *testing.T) {
	c := smallCluster(t)
	// Give a second inode the same LMA FID as /d/f1 (duplicate identity).
	ent, _ := c.Stat("/d/f1")
	ino, err := c.MDT.Img.AllocInode(ldiskfs.TypeFile)
	if err != nil {
		t.Fatal(err)
	}
	c.MDT.Img.SetXattr(ino, lustre.XattrLMA, lustre.EncodeLMA(ent.FID))
	u := MergeWorkers(scanCluster(t, c), 0)
	d := u.DuplicateClaims()
	if len(d) != 1 || u.FID(d[0]) != ent.FID {
		t.Fatalf("duplicates: %v", d)
	}
	if c := claimLists(u)[d[0]]; len(c) != 2 {
		t.Errorf("claims = %+v", c)
	}
}

func TestOrphansDetected(t *testing.T) {
	c := smallCluster(t)
	// Remove one file's dirent + LOVEA reference by unlinking the file
	// but manually re-creating a stranded OST object.
	ost := c.OSTs[0]
	ino, err := ost.Img.AllocInode(ldiskfs.TypeObject)
	if err != nil {
		t.Fatal(err)
	}
	strayFID := lustre.FID{Seq: lustre.OSTSeqBase, Oid: 9999}
	ost.Img.SetXattr(ino, lustre.XattrLMA, lustre.EncodeLMA(strayFID))
	// No filter-fid: the object neither points nor is pointed at.
	u := MergeWorkers(scanCluster(t, c), 0)
	b := u.Build(0)
	orphans := u.Orphans(b)
	var fids []string
	for _, g := range orphans {
		fids = append(fids, u.FID(g).String())
	}
	sort.Strings(fids)
	if len(orphans) != 1 || u.FID(orphans[0]) != strayFID {
		t.Fatalf("orphans = %v", fids)
	}
}

// TestMergeEdgeCountPreservedProperty: aggregation neither drops nor
// invents edges, for arbitrary partial-graph contents.
func TestMergeEdgeCountPreservedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var parts []*scanner.Partial
		total := 0
		for p := 0; p < 1+r.Intn(4); p++ {
			part := &scanner.Partial{ServerLabel: fmt.Sprintf("ost%d", p)}
			for i := 0; i < r.Intn(40); i++ {
				part.Objects.Append(scanner.Object{
					FID: lustre.FID{Seq: uint64(r.Intn(5)), Oid: uint32(r.Intn(20))},
					Ino: ldiskfs.Ino(i + 1), Type: ldiskfs.TypeObject,
				})
			}
			for i := 0; i < r.Intn(80) && part.Objects.Len() > 0; i++ {
				part.Edges.Append(scanner.Edge{
					Src:  uint32(r.Intn(part.Objects.Len())),
					Dst:  lustre.FID{Seq: uint64(r.Intn(5)), Oid: uint32(r.Intn(20))},
					Kind: graph.EdgeKind(r.Intn(5)),
				})
				total++
			}
			parts = append(parts, part)
		}
		u := MergeWorkers(parts, 0)
		if len(u.Edges) != total {
			return false
		}
		b := u.Build(0)
		return b.Fwd.NumEdges() == int64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeForwardsIssues: scanner parse problems survive aggregation
// with their server labels.
func TestMergeForwardsIssues(t *testing.T) {
	parts := []*scanner.Partial{
		{ServerLabel: "mdt0", Issues: []scanner.Issue{{Ino: 5, What: "corrupt LMA"}}},
		{ServerLabel: "ost1", Issues: []scanner.Issue{{Ino: 9, What: "corrupt LOVEA"}}},
	}
	u := MergeWorkers(parts, 0)
	if len(u.Issues) != 2 {
		t.Fatalf("issues = %v", u.Issues)
	}
	if u.Issues[0] != "mdt0: ino 5: corrupt LMA" || u.Issues[1] != "ost1: ino 9: corrupt LOVEA" {
		t.Errorf("issue strings: %v", u.Issues)
	}
}

func TestMergeEdgesKindsPreserved(t *testing.T) {
	c := smallCluster(t)
	u := MergeWorkers(scanCluster(t, c), 0)
	kinds := make(map[graph.EdgeKind]int)
	for _, e := range u.Edges {
		kinds[e.Kind]++
	}
	if kinds[graph.KindDirent] == 0 || kinds[graph.KindLinkEA] == 0 ||
		kinds[graph.KindLOVEA] == 0 || kinds[graph.KindFilterFID] == 0 {
		t.Errorf("edge kinds missing: %v", kinds)
	}
}
