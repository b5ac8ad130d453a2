package checker

import (
	"testing"

	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

// TestDetachedCycleDetected: the coherent-corruption case the paper
// declares undetectable (§VI) — a subtree severed from the root whose
// members all pair perfectly — must be found by the reachability pass.
func TestDetachedCycleDetected(t *testing.T) {
	c := fig7Cluster(t)
	inj, err := inject.Inject(c, inject.DetachedCycle, fig7Target)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ClusterImages(c), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Every relation pairs: rank-based detection must stay silent...
	if res.Stats.UnpairedEdges != 0 {
		t.Fatalf("cycle injection left %d unpaired edges — not coherent", res.Stats.UnpairedEdges)
	}
	if len(res.Report.Suspects) != 0 {
		t.Errorf("rank suspects on a coherent graph: %+v", res.Report.Suspects)
	}
	// ...and the reachability pass must raise exactly one island.
	islands := res.FindingsOfKind(DetachedNamespace)
	if len(islands) != 1 {
		t.Fatalf("detached islands = %d; findings: %v", len(islands), describe(res))
	}
	if islands[0].FID != inj.VictimFID {
		t.Errorf("island anchored at %v, want %v", islands[0].FID, inj.VictimFID)
	}
	if len(islands[0].Repairs) < 2 { // re-root + drop the internal claim
		t.Errorf("island repairs incomplete: %+v", islands[0].Repairs)
	}
}

// TestCleanClusterHasNoIslands guards against reachability false
// positives, including on clusters with lost+found content.
func TestCleanClusterHasNoIslands(t *testing.T) {
	c := fig7Cluster(t)
	res, err := Run(ClusterImages(c), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.FindingsOfKind(DetachedNamespace)); n != 0 {
		t.Fatalf("islands on a clean cluster: %d", n)
	}
}

// TestDetachedIslandSkipsPairingFindings: a subtree severed the *loud*
// way (parent dirent gone, LinkEA stale) is owned by pairing-based
// findings; the reachability pass must not double-report it.
func TestDetachedIslandSkipsPairingFindings(t *testing.T) {
	c := fig7Cluster(t)
	// Sever /proj1 by removing its dirent only: /proj1's LinkEA is now
	// unanswered, which the pairing passes attribute.
	dir, err := c.Stat("/proj1")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MDT.Img.RemoveDirent(c.RootIno(), "proj1"); err != nil {
		t.Fatal(err)
	}
	res, err := Run(ClusterImages(c), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.FindingsOfKind(DetachedNamespace) {
		if f.FID == dir.FID {
			t.Fatalf("island double-reports the unpaired severed dir: %v", describe(res))
		}
	}
	if len(res.Findings) == 0 {
		t.Fatal("loud severing not reported at all")
	}
}

// TestReachFindingsOnPairedGraph: the findings that need no rank still
// come out of a check whose rank is skipped — a coherently detached
// cycle and a stray object with no relation at all both leave every
// relation paired.
func TestReachFindingsOnPairedGraph(t *testing.T) {
	c := fig7Cluster(t)
	inj, err := inject.Inject(c, inject.DetachedCycle, fig7Target)
	if err != nil {
		t.Fatal(err)
	}
	ost := c.OSTs[1]
	ino, err := ost.Img.AllocInode(ldiskfs.TypeObject)
	if err != nil {
		t.Fatal(err)
	}
	stray := lustre.FID{Seq: lustre.OSTSeqBase + 1, Oid: 0xABCD}
	if err := ost.Img.SetXattr(ino, lustre.XattrLMA, lustre.EncodeLMA(stray)); err != nil {
		t.Fatal(err)
	}
	res, err := Run(ClusterImages(c), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.UnpairedEdges != 0 || !res.Rank.Skipped {
		t.Fatalf("%d unpaired edges, rank skipped %v: want a paired graph and a skipped rank",
			res.Stats.UnpairedEdges, res.Rank.Skipped)
	}
	if !res.HasFinding(DetachedNamespace, inj.VictimFID) || !res.HasFinding(OrphanObject, stray) {
		t.Fatalf("reachability findings missing: %v", describe(res))
	}
}
