package repair

import (
	"testing"

	"faultyrank/internal/checker"
	"faultyrank/internal/core"
	"faultyrank/internal/lustre"
)

// corruptLinkEAOnly rewires one file's LinkEA to a bogus parent while
// its layout relations stay healthy — the plane-dilution case: the
// merged property rank is propped up by the paired LOVEA edges.
func corruptLinkEAOnly(t *testing.T, c *lustre.Cluster, p string) lustre.Entry {
	t.Helper()
	ent, err := c.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	link, err := lustre.EncodeLinkEA([]lustre.LinkEntry{
		{Parent: lustre.FID{Seq: 0xDEAD, Oid: 7}, Name: "misdirected"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MDT.Img.SetXattr(ent.Ino, lustre.XattrLink, link); err != nil {
		t.Fatal(err)
	}
	return ent
}

// TestSplitPassCatchesDilutedFault: the split-property option attributes
// a namespace-plane fault the merged ranks can dilute away, and the
// resulting repair round-trips to a consistent file system.
func TestSplitPassCatchesDilutedFault(t *testing.T) {
	c := fig7Cluster(t)
	ent := corruptLinkEAOnly(t, c, "/proj1/file2")
	images := checker.ClusterImages(c)

	opt := checker.DefaultOptions()
	opt.SplitProperties = true
	res, err := checker.Run(images, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasFinding(checker.FaultyProperty, ent.FID) {
		var got []string
		for _, f := range res.Findings {
			got = append(got, f.Kind.String()+" "+f.FID.String()+": "+f.Detail)
		}
		t.Fatalf("split pass did not attribute the LinkEA fault: %v", got)
	}

	eng := NewEngine(images, res)
	sum := eng.Apply(res.Findings)
	if sum.Applied == 0 {
		t.Fatalf("nothing applied: %v", sum.Log)
	}
	verify, err := checker.Run(images, opt)
	if err != nil {
		t.Fatal(err)
	}
	if verify.Stats.UnpairedEdges != 0 {
		t.Errorf("unpaired after split-guided repair: %d", verify.Stats.UnpairedEdges)
		t.Logf("repair log: %v", sum.Log)
	}
	for _, f := range verify.Findings {
		if f.Kind != checker.Ambiguous {
			t.Errorf("residual: %v %v %s", f.Kind, f.FID, f.Detail)
		}
	}
}

// TestSplitPassNoFalsePositives: the option adds nothing on a clean
// cluster.
func TestSplitPassNoFalsePositives(t *testing.T) {
	c := fig7Cluster(t)
	opt := checker.DefaultOptions()
	opt.SplitProperties = true
	res, err := checker.Run(checker.ClusterImages(c), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("split pass invented findings on a clean cluster: %d", len(res.Findings))
	}
}

// TestSplitPassDoesNotDuplicate: vertices already flagged by the merged
// pass are not re-reported.
func TestSplitPassDoesNotDuplicate(t *testing.T) {
	c := fig7Cluster(t)
	// A wiped directory is attributed by the merged pass already.
	dir, err := c.Stat("/proj1")
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := c.MDT.Img.DirentBlockRanges(dir.Ino)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ranges {
		c.MDT.Img.CorruptBytes(r[0], make([]byte, r[1]-r[0]))
	}
	c.MDT.Img.RemoveXattr(dir.Ino, lustre.XattrLink)

	opt := checker.DefaultOptions()
	opt.SplitProperties = true
	res, err := checker.Run(checker.ClusterImages(c), opt)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, f := range res.Findings {
		if f.FID == dir.FID && f.Field == core.FieldProperty && f.Kind == checker.FaultyProperty {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("dir property reported %d times", seen)
	}
}
