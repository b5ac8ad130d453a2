package repair

import (
	"fmt"
	"testing"

	"faultyrank/internal/checker"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lfsck"
	"faultyrank/internal/lustre"
)

func dneCluster(t testing.TB) *lustre.Cluster {
	t.Helper()
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 4, NumMDTs: 3, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 6; d++ {
		dir := fmt.Sprintf("/vol%d", d)
		if err := c.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 4; f++ {
			if _, err := c.Create(fmt.Sprintf("%s/file%d", dir, f), 3*64<<10); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// TestDNECleanClusterConsistent: the checker merges partial graphs from
// any number of MDTs — a healthy DNE cluster checks clean, including
// the cross-MDT remote-directory relations.
func TestDNECleanClusterConsistent(t *testing.T) {
	c := dneCluster(t)
	res, err := checker.Run(checker.ClusterImages(c), checker.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.UnpairedEdges != 0 || len(res.Findings) != 0 {
		t.Fatalf("DNE cluster inconsistent: %d unpaired, %d findings",
			res.Stats.UnpairedEdges, len(res.Findings))
	}
	// Sanity: the namespace genuinely spans multiple MDTs.
	var nonZero bool
	for d := 0; d < 6; d++ {
		ent, err := c.Stat(fmt.Sprintf("/vol%d", d))
		if err != nil {
			t.Fatal(err)
		}
		if ent.MDT != 0 {
			nonZero = true
		}
	}
	if !nonZero {
		t.Fatal("all directories landed on MDT0")
	}
}

// TestDNEInjectCheckRepairRoundTrip: every Fig. 7 scenario (plus the
// detached-cycle extension) round-trips on a 3-MDT cluster, with the
// target file homed on a non-primary MDT.
func TestDNEInjectCheckRepairRoundTrip(t *testing.T) {
	for s := inject.Scenario(0); s <= inject.DetachedCycle; s++ {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			c := dneCluster(t)
			// Find a target file homed off MDT0 to force cross-MDT paths.
			target := ""
			for d := 0; d < 6 && target == ""; d++ {
				p := fmt.Sprintf("/vol%d/file2", d)
				if ent, err := c.Stat(p); err == nil && ent.MDT != 0 {
					target = p
				}
			}
			if target == "" {
				t.Fatal("no off-primary file found")
			}
			if _, err := inject.Inject(c, s, target); err != nil {
				t.Fatalf("inject: %v", err)
			}
			images := checker.ClusterImages(c)
			res, err := checker.Run(images, checker.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Findings) == 0 {
				t.Fatal("nothing detected")
			}
			eng := NewEngine(images, res)
			sum := eng.Apply(res.Findings)
			verify, err := checker.Run(images, checker.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if verify.Stats.UnpairedEdges != 0 || len(verify.Findings) != 0 {
				t.Errorf("residual: %d unpaired, %d findings; log %v",
					verify.Stats.UnpairedEdges, len(verify.Findings), sum.Log)
			}
		})
	}
}

// TestLFSCKRejectsDNE: the baseline declares multi-MDT out of scope.
func TestLFSCKRejectsDNE(t *testing.T) {
	c := dneCluster(t)
	if _, err := lfsck.Run(checker.ClusterImages(c), lfsck.Options{}); err == nil {
		t.Fatal("lfsck accepted a multi-MDT cluster")
	}
}
