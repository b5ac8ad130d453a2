package bench

import (
	"fmt"
	"time"

	"faultyrank/internal/checker"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lfsck"
	"faultyrank/internal/lustre"
	"faultyrank/internal/workload"
)

// Table6Row is one aged-file-system measurement point.
type Table6Row struct {
	MDTInodes   int64
	TotalInodes int64
	LFSCK       time.Duration
	// LFSCKBatched is the modernised baseline with batched RPCs
	// (BatchSize 64) — the MSST'19 optimisation ablation.
	LFSCKBatched time.Duration
	FaultyRank   time.Duration
	TScan        time.Duration
	TGraph       time.Duration
	TFR          time.Duration
	// DefaultCheck is the total of a check with default options, which
	// skips the rank on a graph whose relations are all paired — as every
	// aged point's is. FaultyRank and T_FR time the paper's pipeline,
	// rank included (core.Options.AlwaysRank).
	DefaultCheck time.Duration
}

// table6Points returns the MDT-inode targets per scale. The paper ages
// its testbed from 0.65 M to 4.2 M inodes; scaled runs keep the same
// geometric spread.
func table6Points(scale Scale) []int64 {
	switch scale {
	case ScaleSmoke:
		return []int64{1000, 2000}
	case ScalePaper:
		return []int64{651_553, 1_099_717, 1_555_351, 2_007_043, 2_231_988, 3_335_597, 4_235_925}
	default:
		return []int64{10_000, 20_000, 40_000, 60_000, 90_000, 130_000}
	}
}

// Table6Measure ages a cluster through the inode targets and, at each
// point, times a full LFSCK run and a full FaultyRank run (scan,
// transfer+graph, iterate) on copies of the images so neither checker
// sees the other's repairs. useTCP selects the deployment-faithful data
// path for both checkers.
func Table6Measure(scale Scale, useTCP bool, workers int) ([]Table6Row, error) {
	geometry := ldiskfs.CompactGeometry()
	if scale == ScalePaper {
		geometry = ldiskfs.DefaultGeometry()
	}
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 8, StripeSize: 64 << 10, StripeCount: -1, Geometry: geometry,
	})
	if err != nil {
		return nil, err
	}
	var rows []Table6Row
	for _, target := range table6Points(scale) {
		if _, err := workload.Age(c, workload.AgeSpec{
			TargetMDTInodes: target, ChurnFraction: 0.15, Seed: target,
		}); err != nil {
			return nil, err
		}
		row := Table6Row{MDTInodes: c.MDTInodes(), TotalInodes: c.TotalInodes()}

		// LFSCK on a deep copy of the images (it repairs as it goes —
		// here there is nothing to repair, but stay isolated anyway).
		lfImages, err := copyImages(checker.ClusterImages(c))
		if err != nil {
			return nil, err
		}
		lres, err := lfsck.Run(lfImages, lfsck.Options{UseTCP: useTCP})
		if err != nil {
			return nil, err
		}
		row.LFSCK = lres.Duration

		// The batched-RPC baseline on another copy.
		lbImages, err := copyImages(checker.ClusterImages(c))
		if err != nil {
			return nil, err
		}
		lbres, err := lfsck.Run(lbImages, lfsck.Options{UseTCP: useTCP, BatchSize: 64})
		if err != nil {
			return nil, err
		}
		row.LFSCKBatched = lbres.Duration

		// FaultyRank end-to-end, the rank timed as the paper times it,
		// then the default check of the same images (it repairs nothing).
		frImages, err := copyImages(checker.ClusterImages(c))
		if err != nil {
			return nil, err
		}
		opt := checker.DefaultOptions()
		opt.UseTCP = useTCP
		opt.Workers = workers
		opt.Core.AlwaysRank = true
		fres, err := checker.Run(frImages, opt)
		if err != nil {
			return nil, err
		}
		row.FaultyRank = fres.Total()
		row.TScan, row.TGraph, row.TFR = fres.TScan, fres.TGraph, fres.TRank
		opt.Core.AlwaysRank = false
		dres, err := checker.Run(frImages, opt)
		if err != nil {
			return nil, err
		}
		row.DefaultCheck = dres.Total()
		rows = append(rows, row)
	}
	return rows, nil
}

// copyImages deep-copies server images so checker runs stay isolated.
func copyImages(images []*ldiskfs.Image) ([]*ldiskfs.Image, error) {
	out := make([]*ldiskfs.Image, len(images))
	for i, img := range images {
		raw := append([]byte(nil), img.Bytes()...)
		cp, err := ldiskfs.FromBytes(raw)
		if err != nil {
			return nil, err
		}
		out[i] = cp
	}
	return out, nil
}

// Table6 renders the measurements in the paper's layout.
func Table6(rows []Table6Row) *Table {
	t := &Table{
		Title: "Table VI — execution time (s) of FaultyRank and LFSCK on the aged cluster",
		Columns: []string{
			"MDS inodes", "total inodes", "LFSCK", "LFSCK-batched", "FaultyRank",
			"T_scan", "T_graph", "T_FR", "speedup", "vs batched", "default check (rank skipped)",
		},
	}
	for _, r := range rows {
		speedup := float64(r.LFSCK) / float64(r.FaultyRank)
		vsBatched := float64(r.LFSCKBatched) / float64(r.FaultyRank)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.MDTInodes),
			fmt.Sprintf("%d", r.TotalInodes),
			fmt.Sprintf("%.2f", r.LFSCK.Seconds()),
			fmt.Sprintf("%.2f", r.LFSCKBatched.Seconds()),
			fmt.Sprintf("%.2f", r.FaultyRank.Seconds()),
			fmt.Sprintf("%.2f", r.TScan.Seconds()),
			fmt.Sprintf("%.2f", r.TGraph.Seconds()),
			fmt.Sprintf("%.2f", r.TFR.Seconds()),
			fmt.Sprintf("%.1fx", speedup),
			fmt.Sprintf("%.1fx", vsBatched),
			fmt.Sprintf("%.2f", r.DefaultCheck.Seconds()),
		})
	}
	t.Notes = append(t.Notes,
		"paper: FaultyRank is 5-17x faster than LFSCK at every aging point; the gap comes from bulk transfer vs per-object RPCs",
		"FaultyRank and T_FR run the rank as the paper does; the last column is a default check of the same images, which skips the rank because every relation is paired (only unpaired relations are judged, §III)",
		"LFSCK-batched is the MSST'19-style modernisation (64 FIDs per round trip): it narrows but does not close the gap — the remaining cost is LFSCK's per-inode evaluation and repeated metadata reads")
	return t
}
