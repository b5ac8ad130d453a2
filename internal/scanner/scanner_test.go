package scanner

import (
	"fmt"
	"testing"

	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

func buildCluster(t *testing.T) *lustre.Cluster {
	t.Helper()
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 4, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MkdirAll("/proj/data"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := c.Create(fmt.Sprintf("/proj/data/f%d", i), int64(i)*80<<10); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestScanMDTEmitsNamespaceAndLayout(t *testing.T) {
	c := buildCluster(t)
	p, err := ScanImage(c.MDT.Img, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.ServerLabel != "mdt0" {
		t.Errorf("label = %q", p.ServerLabel)
	}
	// Objects: root + proj + data + 6 files = 9.
	if p.Objects.Len() != 9 {
		t.Fatalf("objects = %d, want 9", p.Objects.Len())
	}
	var dirents, linkeas, loveas int
	for j := range p.Edges.Len() {
		e := p.Edges.At(j)
		switch e.Kind {
		case graph.KindDirent:
			dirents++
		case graph.KindLinkEA:
			linkeas++
		case graph.KindLOVEA:
			loveas++
		default:
			t.Errorf("unexpected edge kind %v on MDT", e.Kind)
		}
	}
	// Dirents: root->proj, proj->data, data->6 files = 8.
	if dirents != 8 {
		t.Errorf("dirent edges = %d, want 8", dirents)
	}
	// LinkEAs: every object (incl. root self-link) = 9.
	if linkeas != 9 {
		t.Errorf("linkea edges = %d, want 9", linkeas)
	}
	// LOVEA entries: files of size 0,80K,160K,240K,320K,400K with 64K
	// stripes capped at 4 OSTs -> 1+2+3+4+4+4 = 18.
	if loveas != 18 {
		t.Errorf("lovea edges = %d, want 18", loveas)
	}
	if len(p.Issues) != 0 {
		t.Errorf("unexpected issues: %v", p.Issues)
	}
	if p.Stats.InodesScanned != 9 || p.Stats.DirentsRead != 8 {
		t.Errorf("stats: %+v", p.Stats)
	}
}

func TestScanOSTEmitsFilterFIDs(t *testing.T) {
	c := buildCluster(t)
	var objects, ffEdges int
	for _, ost := range c.OSTs {
		p, err := ScanImage(ost.Img, 2)
		if err != nil {
			t.Fatal(err)
		}
		objects += p.Objects.Len()
		for j := range p.Edges.Len() {
			e := p.Edges.At(j)
			if e.Kind != graph.KindFilterFID {
				t.Errorf("unexpected kind %v on OST", e.Kind)
			}
			ffEdges++
		}
	}
	if objects != 18 || ffEdges != 18 {
		t.Errorf("objects=%d ffEdges=%d, want 18/18", objects, ffEdges)
	}
}

func TestScanRoundTripPairing(t *testing.T) {
	// A consistent cluster must scan into a fully paired graph (after
	// aggregation every point-to has its point-back).
	c := buildCluster(t)
	var edges []FIDEdge
	for _, img := range c.Images() {
		p, err := ScanImage(img, 0)
		if err != nil {
			t.Fatal(err)
		}
		for j := range p.Edges.Len() {
			edges = append(edges, p.FIDEdge(j))
		}
	}
	set := make(map[[2]lustre.FID]int)
	for _, e := range edges {
		set[[2]lustre.FID{e.Src, e.Dst}]++
	}
	for pair := range set {
		if set[[2]lustre.FID{pair[1], pair[0]}] == 0 {
			t.Errorf("edge %v -> %v has no reciprocal", pair[0], pair[1])
		}
	}
}

func TestScanDeterministicAcrossWorkers(t *testing.T) {
	c := buildCluster(t)
	base, err := ScanImage(c.MDT.Img, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		p, err := ScanImage(c.MDT.Img, w)
		if err != nil {
			t.Fatal(err)
		}
		if p.Edges.Len() != base.Edges.Len() || p.Objects.Len() != base.Objects.Len() {
			t.Fatalf("workers=%d: different counts", w)
		}
		for i := range p.Edges.Len() {
			if p.Edges.At(i) != base.Edges.At(i) {
				t.Fatalf("workers=%d: edge %d differs", w, i)
			}
		}
	}
}

func TestScanFromBytes(t *testing.T) {
	c := buildCluster(t)
	raw := append([]byte(nil), c.MDT.Img.Bytes()...)
	img, err := ldiskfs.FromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ScanImage(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Objects.Len() != 9 {
		t.Errorf("objects = %d", p.Objects.Len())
	}
	if _, err := ldiskfs.FromBytes([]byte("garbage")); err == nil {
		t.Error("garbage image scanned")
	}
}

func TestScanReportsCorruptEAs(t *testing.T) {
	c := buildCluster(t)
	ent, err := c.Stat("/proj/data/f3")
	if err != nil {
		t.Fatal(err)
	}
	img := c.MDT.Img
	// Corrupt the LOVEA magic of one file.
	raw, ok, _ := img.GetXattr(ent.Ino, lustre.XattrLOV)
	if !ok {
		t.Fatal("no LOVEA")
	}
	raw[0] ^= 0xFF
	if err := img.SetXattr(ent.Ino, lustre.XattrLOV, raw); err != nil {
		t.Fatal(err)
	}
	p, err := ScanImage(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, is := range p.Issues {
		if is.Ino == ent.Ino {
			found = true
		}
	}
	if !found {
		t.Errorf("corrupt LOVEA not reported: %v", p.Issues)
	}
	// The file still appears as an object (its LMA is intact) but emits
	// no LOVEA edges.
	for j := range p.Edges.Len() {
		e := p.FIDEdge(j)
		if e.Src == ent.FID && e.Kind == graph.KindLOVEA {
			t.Errorf("edge emitted from corrupt LOVEA")
		}
	}
}

func TestScanSkipsInodesWithoutLMA(t *testing.T) {
	c := buildCluster(t)
	ent, _ := c.Stat("/proj/data/f1")
	if err := c.MDT.Img.RemoveXattr(ent.Ino, lustre.XattrLMA); err != nil {
		t.Fatal(err)
	}
	p, err := ScanImage(c.MDT.Img, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Objects.Len() != 8 {
		t.Errorf("objects = %d, want 8", p.Objects.Len())
	}
	var reported bool
	for _, is := range p.Issues {
		if is.Ino == ent.Ino {
			reported = true
		}
	}
	if !reported {
		t.Error("missing LMA not reported")
	}
}
