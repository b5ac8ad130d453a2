package checker

import (
	"strings"
	"testing"
	"time"

	"faultyrank/internal/core"
	"faultyrank/internal/inject"
	"faultyrank/internal/lustre"
)

func TestRunValidatesInput(t *testing.T) {
	if _, err := Run(nil, DefaultOptions()); err == nil {
		t.Fatal("empty image list accepted")
	}
}

// TestRunZeroOptionsGetDefaults: zero options run the paper's defaults —
// the rank skipped on a clean cluster, and iterated to convergence once a
// fault leaves a relation unpaired.
func TestRunZeroOptionsGetDefaults(t *testing.T) {
	c := fig7Cluster(t)
	res, err := RunCluster(c, Options{}) // zero Core options
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rank.Skipped || res.Rank.Iterations != 0 {
		t.Errorf("clean cluster: rank not skipped (skipped=%v, %d iterations)", res.Rank.Skipped, res.Rank.Iterations)
	}
	if _, err := inject.Inject(c, inject.DanglingObjectID, fig7Target); err != nil {
		t.Fatal(err)
	}
	if res, err = RunCluster(c, Options{}); err != nil {
		t.Fatal(err)
	}
	if !res.Rank.Converged {
		t.Error("defaults not applied: no convergence")
	}
}

// TestTCPTransferEquivalence: shipping partial graphs over localhost TCP
// must produce exactly the same findings and graph as the in-process
// hand-off.
func TestTCPTransferEquivalence(t *testing.T) {
	c := fig7Cluster(t)
	if _, err := inject.Inject(c, inject.DanglingObjectID, fig7Target); err != nil {
		t.Fatal(err)
	}
	images := ClusterImages(c)

	inproc, err := Run(images, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.UseTCP = true
	tcp, err := Run(images, opt)
	if err != nil {
		t.Fatal(err)
	}
	if inproc.Stats != tcp.Stats {
		t.Errorf("graph stats diverge: %+v vs %+v", inproc.Stats, tcp.Stats)
	}
	if len(inproc.Findings) != len(tcp.Findings) {
		t.Fatalf("finding counts diverge: %d vs %d", len(inproc.Findings), len(tcp.Findings))
	}
	for i := range inproc.Findings {
		a, b := inproc.Findings[i], tcp.Findings[i]
		if a.Kind != b.Kind || a.FID != b.FID || len(a.Repairs) != len(b.Repairs) {
			t.Errorf("finding %d diverges: %+v vs %+v", i, a, b)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{
		TScan:  time.Second,
		TGraph: 2 * time.Second,
		TRank:  3 * time.Second,
		Findings: []Finding{
			{Kind: FaultyID, FID: lustre.FID{Seq: 1, Oid: 1}},
			{Kind: FaultyProperty, FID: lustre.FID{Seq: 1, Oid: 2}},
			{Kind: FaultyID, FID: lustre.FID{Seq: 1, Oid: 3}},
		},
	}
	if r.Total() != 6*time.Second {
		t.Errorf("total = %v", r.Total())
	}
	if got := len(r.FindingsOfKind(FaultyID)); got != 2 {
		t.Errorf("FindingsOfKind = %d", got)
	}
	if !r.HasFinding(FaultyID, lustre.FID{Seq: 1, Oid: 3}) {
		t.Error("HasFinding missed")
	}
	if r.HasFinding(FaultyProperty, lustre.FID{Seq: 1, Oid: 3}) {
		t.Error("HasFinding false hit")
	}
}

func TestFindingKindStrings(t *testing.T) {
	for k := FindingKind(0); k <= Ambiguous; k++ {
		if k.String() == "" {
			t.Errorf("kind %d unnamed", k)
		}
	}
	if FindingKind(99).String() == "" {
		t.Error("unknown kind unnamed")
	}
}

func TestRepairActionString(t *testing.T) {
	a := RepairAction{Op: core.RepairSetID, TargetFID: lustre.FID{Seq: 1, Oid: 2}, NewID: lustre.FID{Seq: 3, Oid: 4}}
	if a.String() == "" {
		t.Error("empty set-id string")
	}
	b := RepairAction{Op: core.RepairSetProperty, TargetFID: lustre.FID{Seq: 1, Oid: 2}}
	if b.String() == "" {
		t.Error("empty set-property string")
	}
	c := RepairAction{Op: core.RepairDropPointer}
	if c.String() == "" {
		t.Error("empty drop string")
	}
}

func TestWriteReport(t *testing.T) {
	c := fig7Cluster(t)
	if _, err := inject.Inject(c, inject.DanglingObjectID, fig7Target); err != nil {
		t.Fatal(err)
	}
	res, err := RunCluster(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := res.WriteReport(&buf, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"metadata graph:", "T_scan=", "faulty-id", "repair: set-id", "suspect scores"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Clean cluster report says so.
	clean := fig7Cluster(t)
	cres, err := RunCluster(clean, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	cres.WriteReport(&buf, false)
	if !strings.Contains(buf.String(), "consistent — no findings") {
		t.Errorf("clean report wrong:\n%s", buf.String())
	}
}

// TestHardLinksStayConsistent: multi-link files produce one LinkEA
// record per name and one dirent per parent; the checker must see all
// of them as paired relations.
func TestHardLinksStayConsistent(t *testing.T) {
	c := fig7Cluster(t)
	if err := c.Link("/proj0/file1", "/proj2/alias1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Link("/proj0/file1", "/proj1/alias2"); err != nil {
		t.Fatal(err)
	}
	res, err := RunCluster(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.UnpairedEdges != 0 || len(res.Findings) != 0 {
		t.Fatalf("hard links broke pairing: %d unpaired, %v",
			res.Stats.UnpairedEdges, describe(res))
	}
	// Damaging ONE link's record is attributed to the file's property
	// without disturbing the other names.
	ent, _ := c.Stat("/proj0/file1")
	raw, _, _ := c.MDT.Img.GetXattr(ent.Ino, lustre.XattrLink)
	links, _ := lustre.DecodeLinkEA(raw)
	if len(links) != 3 {
		t.Fatalf("linkEA records = %d", len(links))
	}
	enc, _ := lustre.EncodeLinkEA(links[:2]) // drop the last name's record
	c.MDT.Img.SetXattr(ent.Ino, lustre.XattrLink, enc)
	res, err = RunCluster(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("dropped link record not detected")
	}
}

// TestStageTimingsPopulated: every stage reports nonzero wall time on a
// real cluster.
func TestStageTimingsPopulated(t *testing.T) {
	c := fig7Cluster(t)
	res, err := RunCluster(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.TScan <= 0 || res.TGraph <= 0 || res.TRank <= 0 {
		t.Errorf("timings: %v %v %v", res.TScan, res.TGraph, res.TRank)
	}
}
