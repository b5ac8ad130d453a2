package checker

import (
	"fmt"
	"testing"

	"faultyrank/internal/core"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

// fig7Cluster builds a small but realistic tree: enough healthy context
// that every object has rank support (the paper's "extra edges" §III-F).
func fig7Cluster(t testing.TB) *lustre.Cluster {
	t.Helper()
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 4, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		dir := fmt.Sprintf("/proj%d", d)
		if err := c.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 4; f++ {
			// 3-stripe files so layout relations have neighbours.
			if _, err := c.Create(fmt.Sprintf("%s/file%d", dir, f), 3*64<<10); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

const fig7Target = "/proj1/file2"

// runScenario injects one Fig. 7 scenario into a fresh cluster and runs
// the FaultyRank checker.
func runScenario(t testing.TB, s inject.Scenario) (*lustre.Cluster, *inject.Injection, *Result) {
	t.Helper()
	c := fig7Cluster(t)
	inj, err := inject.Inject(c, s, fig7Target)
	if err != nil {
		t.Fatalf("inject %v: %v", s, err)
	}
	res, err := RunCluster(c, DefaultOptions())
	if err != nil {
		t.Fatalf("check %v: %v", s, err)
	}
	return c, inj, res
}

// TestCleanClusterNoFindings: a healthy cluster yields zero findings,
// and its rank is skipped — every relation is paired.
func TestCleanClusterNoFindings(t *testing.T) {
	c := fig7Cluster(t)
	res, err := RunCluster(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("findings on clean cluster: %+v", res.Findings)
	}
	if res.Stats.UnpairedEdges != 0 {
		t.Errorf("unpaired edges: %d", res.Stats.UnpairedEdges)
	}
	if !res.Rank.Skipped || res.Rank.Iterations != 0 || !res.Rank.Converged {
		t.Errorf("rank on a paired graph: skipped=%v iterations=%d converged=%v, want skipped",
			res.Rank.Skipped, res.Rank.Iterations, res.Rank.Converged)
	}
}

// --- the eight Fig. 7 scenarios -------------------------------------------

func TestFig7DanglingDirent(t *testing.T) {
	_, inj, res := runScenario(t, inject.DanglingDirent)
	if !res.HasFinding(FaultyProperty, inj.VictimFID) {
		t.Fatalf("dir property not flagged; findings: %v", describe(res))
	}
	// The repairs rebuild the dirent table from the children and the
	// LinkEA from the parent.
	var dirents, linkeas int
	for _, f := range res.FindingsOfKind(FaultyProperty) {
		if f.FID != inj.VictimFID {
			continue
		}
		for _, r := range f.Repairs {
			if r.Op != core.RepairSetProperty {
				continue
			}
			switch r.Kind.String() {
			case "dirent":
				dirents++
			case "linkea":
				linkeas++
			}
		}
	}
	if dirents < 4 { // the four files under /proj1
		t.Errorf("dirent rebuild repairs = %d, want >= 4 (%v)", dirents, describe(res))
	}
	if linkeas != 1 {
		t.Errorf("linkea rebuild repairs = %d, want 1", linkeas)
	}
}

func TestFig7DanglingObjectID(t *testing.T) {
	_, inj, res := runScenario(t, inject.DanglingObjectID)
	if !res.HasFinding(FaultyID, inj.NewFID) {
		t.Fatalf("object id not flagged; findings: %v", describe(res))
	}
	ok := false
	for _, f := range res.FindingsOfKind(FaultyID) {
		for _, r := range f.Repairs {
			if r.Op == core.RepairSetID && r.TargetFID == inj.NewFID && r.NewID == inj.VictimFID {
				ok = true
			}
		}
	}
	if !ok {
		t.Errorf("no set-id repair restoring %v; findings: %v", inj.VictimFID, describe(res))
	}
}

func TestFig7UnrefLOVEADropped(t *testing.T) {
	_, inj, res := runScenario(t, inject.UnrefLOVEADropped)
	// The file's LOVEA lost an entry: the repair re-adds it from the
	// unreferenced object's filter-fid.
	ok := false
	for _, f := range res.FindingsOfKind(FaultyProperty) {
		if f.FID != inj.VictimFID {
			continue
		}
		for _, r := range f.Repairs {
			if r.Op == core.RepairSetProperty && r.SourceFID == inj.PeerFID && r.Kind.String() == "lovea" {
				ok = true
			}
		}
	}
	if !ok {
		t.Fatalf("LOVEA restore repair missing; findings: %v", describe(res))
	}
}

func TestFig7UnrefStaleObject(t *testing.T) {
	_, inj, res := runScenario(t, inject.UnrefStaleObject)
	stale := res.FindingsOfKind(StaleObject)
	if len(stale) != 3 { // the file had 3 stripe objects
		t.Fatalf("stale findings = %d, want 3; findings: %v", len(stale), describe(res))
	}
	for _, f := range stale {
		if len(f.Repairs) == 0 || f.Repairs[0].Op != core.RepairQuarantine ||
			f.Repairs[0].SourceFID != inj.VictimFID {
			t.Errorf("stale repair wrong: %+v", f)
		}
	}
}

func TestFig7DoubleRefLOVEA(t *testing.T) {
	_, inj, res := runScenario(t, inject.DoubleRefLOVEA)
	// The impostor file's duplicate claim is dropped and relinked to its
	// own (now unreferenced) object; the repairs may arrive across
	// multiple findings for the impostor FID.
	var repairs []RepairAction
	for _, f := range res.Findings {
		if f.Kind == FaultyProperty && f.FID == inj.VictimFID {
			repairs = append(repairs, f.Repairs...)
		}
	}
	if len(repairs) == 0 {
		t.Fatalf("impostor property not flagged; findings: %v", describe(res))
	}
	var drop, relink bool
	for _, r := range repairs {
		if r.Op == core.RepairDropPointer && r.SourceFID == inj.PeerFID {
			drop = true
		}
		if r.Op == core.RepairSetProperty && r.Kind.String() == "lovea" {
			relink = true
		}
	}
	if !drop || !relink {
		t.Errorf("double-ref repairs incomplete (drop=%v relink=%v): %+v", drop, relink, repairs)
	}
}

func TestFig7DoubleRefLMA(t *testing.T) {
	_, inj, res := runScenario(t, inject.DoubleRefLMA)
	dups := res.FindingsOfKind(DuplicateIdentity)
	if len(dups) != 1 || dups[0].FID != inj.VictimFID {
		t.Fatalf("duplicate identity not flagged; findings: %v", describe(res))
	}
	if len(dups[0].Repairs) != 1 || dups[0].Repairs[0].Op != core.RepairQuarantine {
		t.Fatalf("impostor quarantine missing: %+v", dups[0])
	}
	// The arbitration must finger exactly the impostor (which lives on a
	// different OST than the real object).
	if dups[0].Repairs[0].Loc.Server == "" {
		t.Error("impostor location not pinned")
	}
}

func TestFig7MismatchFilterFID(t *testing.T) {
	_, inj, res := runScenario(t, inject.MismatchFilterFID)
	ok := false
	for _, f := range res.FindingsOfKind(FaultyProperty) {
		if f.FID != inj.VictimFID {
			continue
		}
		for _, r := range f.Repairs {
			if r.Op == core.RepairSetProperty && r.SourceFID == inj.PeerFID &&
				r.Kind.String() == "filterfid" {
				ok = true
			}
		}
	}
	if !ok {
		t.Fatalf("filter-fid restore missing; findings: %v", describe(res))
	}
}

func TestFig7MismatchFileID(t *testing.T) {
	_, inj, res := runScenario(t, inject.MismatchFileID)
	ok := false
	for _, f := range res.FindingsOfKind(FaultyID) {
		if f.FID != inj.NewFID {
			continue
		}
		for _, r := range f.Repairs {
			if r.Op == core.RepairSetID && r.NewID == inj.VictimFID {
				ok = true
			}
		}
	}
	if !ok {
		t.Fatalf("file id restore missing; findings: %v", describe(res))
	}
}

// TestFig7AllScenariosNoFalsePositiveStorm: each scenario should produce
// a focused report, not flag the whole tree.
func TestFig7AllScenariosNoFalsePositiveStorm(t *testing.T) {
	for s := inject.Scenario(0); s < inject.NumScenarios; s++ {
		_, _, res := runScenario(t, s)
		actionable := 0
		for _, f := range res.Findings {
			if f.Kind != Ambiguous && f.Kind != ParseDamage {
				actionable++
			}
		}
		if actionable == 0 {
			t.Errorf("%v: nothing detected", s)
		}
		if actionable > 6 {
			t.Errorf("%v: %d findings — false-positive storm? %v", s, actionable, describe(res))
		}
	}
}

func describe(res *Result) []string {
	var out []string
	for _, f := range res.Findings {
		out = append(out, fmt.Sprintf("%v %v: %s (repairs %v)", f.Kind, f.FID, f.Detail, f.Repairs))
	}
	return out
}
