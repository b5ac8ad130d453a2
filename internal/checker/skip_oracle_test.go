package checker_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"faultyrank/internal/checker"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/repair"
	"faultyrank/internal/workload"
)

// TestSkippedRankMatchesRankedOnCleanClusters is the oracle behind the
// skip: on every clean cluster — fresh, aged, DNE, and each one a repair
// pass left behind — detection and classification over NaN ranks give
// exactly the findings the real ranks give, so nothing reads the ranks
// of a fully paired graph, and a default check, which skips them, agrees
// with one that computes them. The skipped check's rank vectors hold the
// uniform cold seed, which any reader would take for healthy scores; the
// NaN pass is what shows that no reader exists.
func TestSkippedRankMatchesRankedOnCleanClusters(t *testing.T) {
	clusters := map[string]*lustre.Cluster{"fig7": checker.Fig7Cluster(t)}

	aged := newCluster(t, 1, 8)
	if _, err := workload.Age(aged, workload.AgeSpec{TargetMDTInodes: 3000, ChurnFraction: 0.15, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	clusters["aged"] = aged

	dne := newCluster(t, 3, 4)
	if _, err := workload.Populate(dne, workload.DefaultTreeSpec(300, 77)); err != nil {
		t.Fatal(err)
	}
	clusters["dne"] = dne

	for s := inject.Scenario(0); s < inject.NumScenarios; s++ {
		c := checker.Fig7Cluster(t)
		if _, err := inject.Inject(c, s, checker.Fig7Target); err != nil {
			t.Fatal(err)
		}
		repairOnce(t, c)
		clusters["repaired-"+s.String()] = c
	}
	for seed := int64(1); seed <= 6; seed++ {
		clusters[fmt.Sprintf("repaired-campaign-%d", seed)] = repairedCampaign(t, seed)
	}

	for name, c := range clusters {
		images := checker.ClusterImages(c)
		skipped, err := checker.Run(images, checker.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if skipped.Stats.UnpairedEdges != 0 || !skipped.Rank.Skipped {
			t.Fatalf("%s: not a clean check: %d unpaired edges, rank skipped %v",
				name, skipped.Stats.UnpairedEdges, skipped.Rank.Skipped)
		}
		opt := checker.DefaultOptions()
		opt.Core.AlwaysRank = true
		ranked, err := checker.Run(images, opt)
		if err != nil {
			t.Fatal(err)
		}
		if ranked.Rank.Skipped || ranked.Rank.Iterations == 0 {
			t.Fatalf("%s: AlwaysRank did not iterate", name)
		}
		report, findings := checker.FindingsOverNaNRanks(ranked, images, opt)
		if !reflect.DeepEqual(report, ranked.Report) || !reflect.DeepEqual(findings, ranked.Findings) {
			t.Fatalf("%s: NaN ranks changed the verdict:\n report %+v\n want   %+v\n findings %v\n want     %v",
				name, report, ranked.Report, findings, ranked.Findings)
		}
		if !reflect.DeepEqual(skipped.Report, ranked.Report) || !reflect.DeepEqual(skipped.Findings, ranked.Findings) {
			t.Fatalf("%s: the skipped check's verdict differs from the ranked one:\n %v\n %v",
				name, skipped.Findings, ranked.Findings)
		}
	}
}

func newCluster(t *testing.T, mdts, osts int) *lustre.Cluster {
	t.Helper()
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: osts, NumMDTs: mdts, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// repairOnce checks c and applies every finding's repairs.
func repairOnce(t *testing.T, c *lustre.Cluster) {
	t.Helper()
	images := checker.ClusterImages(c)
	res, err := checker.Run(images, checker.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("the planted fault was not found")
	}
	repair.NewEngine(images, res).Apply(res.Findings)
}

// repairedCampaign plants four Fig. 7 faults the way a campaign does —
// one per disjoint six-file region, scenario and target drawn from the
// seed — then checks and repairs once.
func repairedCampaign(t *testing.T, seed int64) *lustre.Cluster {
	t.Helper()
	c := newCluster(t, 1, 8)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 4; i++ {
		region := fmt.Sprintf("/region%02d", i)
		if err := c.MkdirAll(region); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 6; f++ {
			if _, err := c.Create(fmt.Sprintf("%s/f%02d", region, f), 3*64<<10); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 4; i++ {
		s := inject.Scenario(rng.Intn(int(inject.NumScenarios)))
		target := fmt.Sprintf("/region%02d/f%02d", i, rng.Intn(6))
		if _, err := inject.Inject(c, s, target); err != nil {
			t.Fatalf("seed %d: inject %v at %s: %v", seed, s, target, err)
		}
	}
	repairOnce(t, c)
	return c
}

// TestSplitPlanesJudgedOnTheirOwnPairing: a file's LinkEA gains an entry
// naming one of its own OST objects. In the merged graph that link is
// answered — the object's filter-fid points back — so every relation is
// paired and the merged rank is skipped; in the namespace plane nothing
// answers it, so the split pass ranks that plane and flags the unpaired
// relation between the file and its object.
func TestSplitPlanesJudgedOnTheirOwnPairing(t *testing.T) {
	c := checker.Fig7Cluster(t)
	ent, err := c.Stat(checker.Fig7Target)
	if err != nil {
		t.Fatal(err)
	}
	mdt := c.MDT.Img
	raw, _, err := mdt.GetXattr(ent.Ino, lustre.XattrLOV)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := lustre.DecodeLOVEA(raw)
	if err != nil {
		t.Fatal(err)
	}
	if raw, _, err = mdt.GetXattr(ent.Ino, lustre.XattrLink); err != nil {
		t.Fatal(err)
	}
	links, err := lustre.DecodeLinkEA(raw)
	if err != nil {
		t.Fatal(err)
	}
	links = append(links, lustre.LinkEntry{Parent: layout.Stripes[0].ObjectFID, Name: "stray"})
	if raw, err = lustre.EncodeLinkEA(links); err != nil {
		t.Fatal(err)
	}
	if err := mdt.SetXattr(ent.Ino, lustre.XattrLink, raw); err != nil {
		t.Fatal(err)
	}

	images := checker.ClusterImages(c)
	merged, err := checker.Run(images, checker.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if merged.Stats.UnpairedEdges != 0 || !merged.Rank.Skipped || len(merged.Findings) != 0 {
		t.Fatalf("merged graph: %d unpaired edges, rank skipped %v, %d findings; want a paired, skipped, silent check",
			merged.Stats.UnpairedEdges, merged.Rank.Skipped, len(merged.Findings))
	}
	opt := checker.DefaultOptions()
	opt.SplitProperties = true
	split, err := checker.Run(images, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !split.Rank.Skipped {
		t.Error("the split pass changed the merged rank")
	}
	obj := layout.Stripes[0].ObjectFID
	for _, f := range split.Findings {
		if !strings.Contains(f.Detail, "namespace-plane") {
			continue
		}
		for _, r := range f.Repairs {
			if (r.TargetFID == obj && r.SourceFID == ent.FID) || (r.TargetFID == ent.FID && r.SourceFID == obj) {
				return
			}
		}
	}
	t.Fatalf("split pass did not flag the file–object namespace relation; findings %+v", split.Findings)
}
