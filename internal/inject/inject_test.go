package inject

import (
	"fmt"
	"testing"

	"faultyrank/internal/core"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
)

func testCluster(t *testing.T) *lustre.Cluster {
	t.Helper()
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 4, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.MkdirAll("/d")
	for i := 0; i < 4; i++ {
		if _, err := c.Create(fmt.Sprintf("/d/f%d", i), 3*64<<10); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestScenarioMetadata(t *testing.T) {
	categories := map[string]int{}
	for s := Scenario(0); s < NumScenarios; s++ {
		if s.String() == "" || s.Category() == "" {
			t.Errorf("scenario %d lacks names", s)
		}
		categories[s.Category()]++
	}
	// Two scenarios per Table I category.
	if len(categories) != 4 {
		t.Fatalf("categories: %v", categories)
	}
	for cat, n := range categories {
		if n != 2 {
			t.Errorf("category %q has %d scenarios, want 2", cat, n)
		}
	}
	if Scenario(200).String() == "" {
		t.Error("unknown scenario has empty name")
	}
}

func TestInjectUnknownScenario(t *testing.T) {
	c := testCluster(t)
	if _, err := Inject(c, Scenario(99), "/d/f0"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestInjectValidatesTarget(t *testing.T) {
	c := testCluster(t)
	if _, err := Inject(c, DanglingObjectID, "/nope"); err == nil {
		t.Error("missing target accepted")
	}
	if _, err := Inject(c, DanglingObjectID, "/d"); err == nil {
		t.Error("directory target accepted for layout scenario")
	}
	// UnrefLOVEADropped needs >= 2 stripes.
	if _, err := c.Create("/d/tiny", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := Inject(c, UnrefLOVEADropped, "/d/tiny"); err == nil {
		t.Error("single-stripe target accepted for entry-drop scenario")
	}
}

// TestEachScenarioBreaksPairing: every injection must actually make the
// scanned metadata graph inconsistent (unpaired edges, duplicate claims
// or a lost object), and the ground truth must be well-formed.
func TestEachScenarioBreaksPairing(t *testing.T) {
	for s := Scenario(0); s < NumScenarios; s++ {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			c := testCluster(t)
			inj, err := Inject(c, s, "/d/f2")
			if err != nil {
				t.Fatal(err)
			}
			if inj.VictimFID.IsZero() {
				t.Error("no victim FID recorded")
			}
			if inj.Description == "" {
				t.Error("no description")
			}
			if inj.Field != core.FieldID && inj.Field != core.FieldProperty {
				t.Errorf("bad field %v", inj.Field)
			}
			// Scan everything and count broken invariants.
			var edges int
			fidSeen := make(map[lustre.FID]int)
			pairs := make(map[[2]lustre.FID]int)
			for _, img := range append([]*ldiskfs.Image{c.MDT.Img}, ostImages(c)...) {
				p, err := scanner.ScanImage(img, 0)
				if err != nil {
					t.Fatal(err)
				}
				for j := range p.Objects.Len() {
					o := p.Objects.At(j)
					fidSeen[o.FID]++
				}
				for j := range p.Edges.Len() {
					e := p.FIDEdge(j)
					pairs[[2]lustre.FID{e.Src, e.Dst}]++
					edges++
				}
			}
			broken := 0
			for pair := range pairs {
				if pairs[[2]lustre.FID{pair[1], pair[0]}] == 0 {
					broken++
				}
			}
			dup := 0
			for _, n := range fidSeen {
				if n > 1 {
					dup++
				}
			}
			if broken == 0 && dup == 0 {
				t.Errorf("injection left the graph fully paired (%d edges)", edges)
			}
		})
	}
}

// TestInjectionsAreLocal: an injection must not damage unrelated files.
func TestInjectionsAreLocal(t *testing.T) {
	for s := Scenario(0); s < NumScenarios; s++ {
		c := testCluster(t)
		before, err := c.Stat("/d/f0")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Inject(c, s, "/d/f2"); err != nil {
			t.Fatal(err)
		}
		if s == DanglingDirent {
			continue // the shared parent directory is the victim there
		}
		after, err := c.Stat("/d/f0")
		if err != nil || after.FID != before.FID {
			t.Errorf("%v: bystander file disturbed (%v, %v)", s, after, err)
		}
	}
}

// TestDetachedCycleInjection: the extension scenario keeps every
// relation paired (detection lives in the checker's reachability pass).
func TestDetachedCycleInjection(t *testing.T) {
	c := testCluster(t)
	inj, err := Inject(c, DetachedCycle, "/d/f1")
	if err != nil {
		t.Fatal(err)
	}
	if inj.VictimFID.IsZero() || inj.PeerFID.IsZero() {
		t.Fatalf("ground truth incomplete: %+v", inj)
	}
	pairs := make(map[[2]lustre.FID]int)
	for _, img := range append([]*ldiskfs.Image{c.MDT.Img}, ostImages(c)...) {
		p, err := scanner.ScanImage(img, 0)
		if err != nil {
			t.Fatal(err)
		}
		for j := range p.Edges.Len() {
			e := p.FIDEdge(j)
			pairs[[2]lustre.FID{e.Src, e.Dst}]++
		}
	}
	for pair := range pairs {
		if pairs[[2]lustre.FID{pair[1], pair[0]}] == 0 {
			t.Fatalf("cycle injection broke pairing: %v -> %v", pair[0], pair[1])
		}
	}
	// Root-level targets are rejected (no parent to sever).
	if _, err := c.Create("/toplevel", 64<<10); err != nil {
		t.Fatal(err)
	}
	if _, err := Inject(c, DetachedCycle, "/toplevel"); err == nil {
		t.Error("root-level target accepted")
	}
}

func TestBogusFIDsAreUnique(t *testing.T) {
	a, b := bogusFID(), bogusFID()
	if a == b || a.Seq != bogusSeq {
		t.Fatalf("bogus fids: %v %v", a, b)
	}
}

func TestPathHelpers(t *testing.T) {
	if parentOf("/a/b/c") != "/a/b" || parentOf("/a") != "/" {
		t.Error("parentOf wrong")
	}
	if baseOf("/a/b/c") != "c" || baseOf("x") != "x" {
		t.Error("baseOf wrong")
	}
}

func ostImages(c *lustre.Cluster) []*ldiskfs.Image {
	var out []*ldiskfs.Image
	for _, o := range c.OSTs {
		out = append(out, o.Img)
	}
	return out
}
