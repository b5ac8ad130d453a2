// Lanlwalk: recreate the paper's evaluation dataset methodology (§V-A):
// populate a cluster with a LANL-archive-style namespace (realistic
// directory shapes, the published file-size distribution, 64 KiB
// stripes so layout metadata is rich), then run a full FaultyRank check
// and print the stage timing breakdown the paper reports in Table VI.
package main

import (
	"flag"
	"fmt"
	"log"

	"faultyrank/internal/checker"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/workload"
)

func main() {
	log.SetFlags(0)
	files := flag.Int("files", 20000, "files to create")
	osts := flag.Int("osts", 8, "number of OSTs")
	mdts := flag.Int("mdts", 1, "number of MDTs (>1 = DNE)")
	useTCP := flag.Bool("tcp", false, "ship partial graphs over localhost TCP")
	flag.Parse()

	cluster, err := lustre.NewCluster(lustre.Config{
		NumOSTs: *osts, NumMDTs: *mdts, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.DefaultGeometry(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("populating LANL-style tree with %d files...\n", *files)
	st, err := workload.Populate(cluster, workload.DefaultTreeSpec(*files, 7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d dirs, %d files, %d stripe objects, %.1f GiB logical data\n",
		st.Dirs, st.Files, st.Objects, float64(st.Bytes)/(1<<30))
	fmt.Printf("  MDT inodes: %d, total inodes: %d\n", cluster.MDTInodes(), cluster.TotalInodes())

	opt := checker.DefaultOptions()
	opt.UseTCP = *useTCP
	res, err := checker.Run(checker.ClusterImages(cluster), opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full check: T_scan=%.3fs  T_graph=%.3fs  T_FR=%.3fs  total=%.3fs\n",
		res.TScan.Seconds(), res.TGraph.Seconds(), res.TRank.Seconds(), res.Total().Seconds())
	fmt.Printf("graph: %d vertices, %d edges, %d unpaired — findings: %d\n",
		res.Stats.Vertices, res.Stats.Edges, res.Stats.UnpairedEdges, len(res.Findings))
	if len(res.Findings) == 0 {
		fmt.Println("freshly populated file system is consistent, as expected ✔")
	}
}
