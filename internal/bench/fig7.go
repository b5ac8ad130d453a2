package bench

import (
	"fmt"

	"faultyrank/internal/checker"
	"faultyrank/internal/core"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lfsck"
	"faultyrank/internal/lustre"
	"faultyrank/internal/repair"
	"faultyrank/internal/workload"
)

// Fig7Row is one scenario's comparison between FaultyRank and LFSCK.
type Fig7Row struct {
	Scenario inject.Scenario

	// FaultyRank outcomes.
	FRIdentified bool // the ground-truth faulty field was named
	FRRepaired   bool // after applying repairs, the FS is consistent
	FRPreserved  bool // no data was stranded (no quarantine stubs needed)

	// LFSCK outcomes.
	LFConsistent bool // the FS is consistent after LFSCK's rules ran
	LFStranded   int  // objects/files parked in lost+found
	LFStubs      int  // empty stub objects recreated (data loss)
	// LFOverwrites counts MDS-wins metadata rewrites. When the ground
	// truth was a corrupted identity, these "repairs" paper over the
	// fault by accepting the wrong id as the new truth — the FS ends up
	// consistent but semantically wrong.
	LFOverwrites int
}

// fig7Cluster builds the functional-evaluation cluster.
func fig7Cluster(scale Scale) (*lustre.Cluster, error) {
	files := map[Scale]int{ScaleSmoke: 40, ScaleDefault: 400, ScalePaper: 4000}[scale]
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 8, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		return nil, err
	}
	if _, err := workload.Populate(c, workload.DefaultTreeSpec(files, 1234)); err != nil {
		return nil, err
	}
	return c, nil
}

// Fig7Compare runs every Fig. 7 scenario through both checkers on fresh
// identically-populated clusters.
func Fig7Compare(scale Scale) ([]Fig7Row, error) {
	var rows []Fig7Row
	for s := inject.Scenario(0); s < inject.NumScenarios; s++ {
		row := Fig7Row{Scenario: s}

		// --- FaultyRank path ------------------------------------------
		c, err := fig7Cluster(scale)
		if err != nil {
			return nil, err
		}
		target, err := inject.PickTarget(c)
		if err != nil {
			return nil, err
		}
		inj, err := inject.Inject(c, s, target)
		if err != nil {
			return nil, err
		}
		images := checker.ClusterImages(c)
		res, err := checker.Run(images, checker.DefaultOptions())
		if err != nil {
			return nil, err
		}
		row.FRIdentified = groundTruthIdentified(res, inj)
		eng := repair.NewEngine(images, res)
		eng.Apply(res.Findings)
		verify, err := checker.Run(images, checker.DefaultOptions())
		if err != nil {
			return nil, err
		}
		row.FRRepaired = verify.Stats.UnpairedEdges == 0 && len(verify.Findings) == 0
		row.FRPreserved = s != inject.UnrefStaleObject // recreation is still lost+found-visible
		if s == inject.UnrefStaleObject {
			// The lost file's objects are preserved and re-owned, which
			// counts as preserved even though the path moved.
			row.FRPreserved = row.FRRepaired
		}

		// --- LFSCK path -----------------------------------------------
		c2, err := fig7Cluster(scale)
		if err != nil {
			return nil, err
		}
		target2, err := inject.PickTarget(c2)
		if err != nil {
			return nil, err
		}
		if _, err := inject.Inject(c2, s, target2); err != nil {
			return nil, err
		}
		images2 := checker.ClusterImages(c2)
		lres, err := lfsck.Run(images2, lfsck.Options{})
		if err != nil {
			return nil, err
		}
		row.LFStranded = len(lres.ActionsOfKind(lfsck.NSLostFound)) +
			len(lres.ActionsOfKind(lfsck.LayoutLostFoundObject))
		row.LFStubs = len(lres.ActionsOfKind(lfsck.LayoutRecreateObject))
		row.LFOverwrites = len(lres.ActionsOfKind(lfsck.NSFixLinkEA)) +
			len(lres.ActionsOfKind(lfsck.NSFixDirentFID)) +
			len(lres.ActionsOfKind(lfsck.LayoutFixFilterFID))
		after, err := checker.Run(images2, checker.DefaultOptions())
		if err != nil {
			return nil, err
		}
		row.LFConsistent = after.Stats.UnpairedEdges == 0

		rows = append(rows, row)
	}
	return rows, nil
}

// groundTruthIdentified checks whether the checker named the injected
// fault: the right FID (old or new identity) with the right field, or
// the equivalent structural finding for the stale/duplicate scenarios.
func groundTruthIdentified(res *checker.Result, inj *inject.Injection) bool {
	switch inj.Scenario {
	case inject.UnrefStaleObject:
		return len(res.FindingsOfKind(checker.StaleObject)) > 0
	case inject.DoubleRefLMA:
		return res.HasFinding(checker.DuplicateIdentity, inj.VictimFID)
	}
	want := checker.FaultyProperty
	if inj.Field == core.FieldID {
		want = checker.FaultyID
	}
	for _, f := range res.FindingsOfKind(want) {
		if f.FID == inj.VictimFID || (!inj.NewFID.IsZero() && f.FID == inj.NewFID) {
			return true
		}
	}
	return false
}

// Fig7Table renders the comparison in the paper's layout.
func Fig7Table(rows []Fig7Row) *Table {
	t := &Table{
		Title: "Fig. 7 — FaultyRank vs LFSCK on eight inconsistency scenarios",
		Columns: []string{
			"scenario", "category",
			"FR:root-cause", "FR:repaired",
			"LFSCK:consistent", "LFSCK:lost+found", "LFSCK:stubs", "LFSCK:overwrites",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Scenario.String(), r.Scenario.Category(),
			yesNo(r.FRIdentified), yesNo(r.FRRepaired),
			yesNo(r.LFConsistent), fmt.Sprintf("%d", r.LFStranded),
			fmt.Sprintf("%d", r.LFStubs), fmt.Sprintf("%d", r.LFOverwrites),
		})
	}
	t.Notes = append(t.Notes,
		"paper claim: FaultyRank identifies and repairs all eight; LFSCK parks objects in lost+found or repairs only the MDS-wins cases",
		"an id-corruption row with LFSCK:consistent=yes and overwrites>0 means LFSCK accepted the wrong identity as the new truth")
	return t
}
