package bench

import (
	"fmt"

	"faultyrank/internal/checker"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/workload"
)

// TableDNE measures FaultyRank end-to-end on the same logical namespace
// spread over an increasing number of metadata targets — the extension
// experiment beyond the paper's single-MDS testbed. The merged graph is
// identical regardless of placement (FIDs are cluster-unique, §IV-B);
// what changes is scan parallelism: per-server scanners run
// concurrently, so distributing the namespace shrinks T_scan.
func TableDNE(scale Scale, workers int) (*Table, error) {
	files := map[Scale]int{ScaleSmoke: 1500, ScaleDefault: 30000, ScalePaper: 300000}[scale]
	t := &Table{
		Title: fmt.Sprintf("Extension — DNE scaling (%d-file namespace over N MDTs)", files),
		Columns: []string{
			"MDTs", "MDT inodes", "vertices", "edges", "T_scan (s)", "T_graph (s)", "T_FR (s)", "total (s)",
		},
	}
	var baseVertices int
	for _, nMDT := range []int{1, 2, 4} {
		c, err := lustre.NewCluster(lustre.Config{
			NumOSTs: 8, NumMDTs: nMDT, StripeSize: 64 << 10, StripeCount: -1,
			Geometry: ldiskfs.CompactGeometry(),
		})
		if err != nil {
			return nil, err
		}
		if _, err := workload.Populate(c, workload.DefaultTreeSpec(files, 77)); err != nil {
			return nil, err
		}
		opt := checker.DefaultOptions()
		opt.Workers = workers
		res, err := checker.Run(checker.ClusterImages(c), opt)
		if err != nil {
			return nil, err
		}
		if len(res.Findings) != 0 {
			return nil, fmt.Errorf("bench: DNE cluster with %d MDTs inconsistent", nMDT)
		}
		if baseVertices == 0 {
			baseVertices = res.Stats.Vertices
		} else if res.Stats.Vertices != baseVertices {
			// Placement must not change the logical namespace size.
			return nil, fmt.Errorf("bench: vertex count drifted across placements (%d vs %d)",
				res.Stats.Vertices, baseVertices)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", nMDT),
			fmt.Sprintf("%d", c.MDTInodes()),
			fmt.Sprintf("%d", res.Stats.Vertices),
			fmt.Sprintf("%d", res.Stats.Edges),
			fmt.Sprintf("%.3f", res.TScan.Seconds()),
			fmt.Sprintf("%.3f", res.TGraph.Seconds()),
			fmt.Sprintf("%.3f", res.TRank.Seconds()),
			fmt.Sprintf("%.3f", res.Total().Seconds()),
		})
	}
	t.Notes = append(t.Notes,
		"identical logical namespace per row; only metadata placement changes — the FID-keyed graph merge is placement-agnostic",
		"on one host the scan is already fully parallel, so the expected result is *zero placement overhead* (equal vertices, edges and times); on a real cluster the per-server scanners shard across machines")
	return t, nil
}
