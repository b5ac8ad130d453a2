package scanner

import (
	"testing"

	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

// TestScanInodeSingle: the incremental entry point parses exactly one
// inode and matches the corresponding slice of a full scan.
func TestScanInodeSingle(t *testing.T) {
	c := buildCluster(t)
	ent, err := c.Stat("/proj/data/f3")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ScanInode(c.MDT.Img, ent.Ino)
	if err != nil {
		t.Fatal(err)
	}
	if p.Objects.Len() != 1 || p.Objects.FID(0) != ent.FID {
		t.Fatalf("objects: %+v", p.Objects)
	}
	if p.Stats.InodesScanned != 1 {
		t.Errorf("stats: %+v", p.Stats)
	}
	// One LinkEA edge + LOVEA edges, nothing else.
	var linkea, lovea int
	for j := range p.Edges.Len() {
		e := p.Edges.At(j)
		switch e.Kind {
		case graph.KindLinkEA:
			linkea++
		case graph.KindLOVEA:
			lovea++
		default:
			t.Errorf("unexpected edge kind %v", e.Kind)
		}
	}
	if linkea != 1 || lovea == 0 {
		t.Errorf("edges: linkea=%d lovea=%d", linkea, lovea)
	}
}

func TestScanInodeFreeSlot(t *testing.T) {
	c := buildCluster(t)
	ent, _ := c.Stat("/proj/data/f1")
	if err := c.Unlink("/proj/data/f1"); err != nil {
		t.Fatal(err)
	}
	p, err := ScanInode(c.MDT.Img, ent.Ino)
	if err != nil {
		t.Fatal(err)
	}
	if p.Objects.Len() != 0 || p.Edges.Len() != 0 || p.Stats.InodesScanned != 0 {
		t.Fatalf("freed inode contributed: %+v", p)
	}
	if _, err := ScanInode(c.MDT.Img, ldiskfs.Ino(1<<40)); err == nil {
		t.Error("out-of-range inode accepted")
	}
}

func TestIssueString(t *testing.T) {
	is := Issue{Ino: 7, What: "corrupt LMA"}
	if is.String() != "ino 7: corrupt LMA" {
		t.Errorf("got %q", is.String())
	}
	_ = lustre.FID{} // keep import for helper reuse
}
