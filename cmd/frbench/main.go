// Command frbench regenerates the paper's evaluation tables and figures
// on the simulated substrate:
//
//	frbench -table 2               # Table II  (worked example ranks)
//	frbench -table 3               # Table III (graph inputs)
//	frbench -table 4               # Table IV  (FaultyRank perf/memory)
//	frbench -table 5               # Table V   (degree sweep)
//	frbench -table 6               # Table VI  (end-to-end vs LFSCK)
//	frbench -table fig7            # Fig. 7    (functional comparison)
//	frbench -table dne             # DNE sweep (checker vs MDT count)
//	frbench -table ablation        # design ablation matrix
//	frbench -table all -scale smoke
//
// -scale picks sizing: smoke (seconds), default (minutes), paper (the
// published sizes; RMAT-26 needs ~30 GB RAM). Per-layer measurements of
// the pipeline itself (scan, ship, merge, build, rank, online rounds)
// come from the benchmark module under benchmark/.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"faultyrank/internal/bench"
)

// tableNames lists every artifact -table accepts, in doc-comment order.
// The flag help and the unknown-table error derive from it, so the two
// user-facing lists can no longer drift from the dispatch below.
var tableNames = []string{"2", "3", "4", "5", "6", "fig7", "dne", "ablation"}

// tableChoices renders the accepted -table values for help and errors.
func tableChoices() string {
	return strings.Join(tableNames, "|") + "|all"
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("frbench: ")
	var (
		table    = flag.String("table", "all", "which artifact: "+tableChoices())
		scaleStr = flag.String("scale", "default", "sizing: smoke|default|paper")
		workers  = flag.Int("workers", 0, "parallelism (0 = GOMAXPROCS)")
		useTCP   = flag.Bool("tcp", true, "Table VI: run both checkers over localhost TCP")
	)
	flag.Parse()

	scale, err := bench.ParseScale(*scaleStr)
	if err != nil {
		log.Fatal(err)
	}
	known := *table == "all"
	for _, name := range tableNames {
		if strings.EqualFold(*table, name) {
			known = true
			break
		}
	}
	if !known {
		log.Fatalf("unknown table %q (%s)", *table, tableChoices())
	}
	want := func(name string) bool {
		return *table == "all" || strings.EqualFold(*table, name)
	}
	emit := func(tabs ...*bench.Table) {
		for _, t := range tabs {
			fmt.Println(t.Render())
		}
	}
	if want("2") {
		emit(bench.Table2())
	}
	if want("3") {
		emit(bench.Table3(scale))
	}
	if want("4") {
		emit(bench.Table4(scale, *workers))
	}
	if want("5") {
		emit(bench.Table5(scale, *workers))
	}
	if want("fig7") {
		rows, err := bench.Fig7Compare(scale)
		if err != nil {
			log.Fatal(err)
		}
		emit(bench.Fig7Table(rows))
	}
	if want("6") {
		rows, err := bench.Table6Measure(scale, *useTCP, *workers)
		if err != nil {
			log.Fatal(err)
		}
		emit(bench.Table6(rows))
	}
	if want("dne") {
		tab, err := bench.TableDNE(scale, *workers)
		if err != nil {
			log.Fatal(err)
		}
		emit(tab)
	}
	if want("ablation") {
		tab, err := bench.AblationMatrix(scale)
		if err != nil {
			log.Fatal(err)
		}
		fp, err := bench.AblationFalsePositives(scale)
		if err != nil {
			log.Fatal(err)
		}
		emit(tab, fp)
	}
}
