// Command frrankd is the rank worker (wire.ServeRankWorker) as a
// process of its own: it dials a checker's rank exchange, announces its
// partition, is shipped its graph.SubGraph shard and the kernel
// constants of the run it serves, and runs the worker side of the BSP
// superstep protocol until the coordinator's Done. Process separation
// is the point: K frrankd workers hold 1/K of the CSR each, and they
// can live on other hosts when the checker binds its exchange beyond
// localhost (faultyrank -rank-listen).
//
//	frrankd -connect mds:9200 -part 2
//
// Nothing about the run is configured here — a worker cannot disagree
// with its coordinator about the arithmetic. On exit it prints its own
// peak resident set as one "peak_rss_bytes=N" line on stdout, which is
// where a spawning checker (faultyrank -rank-spawn) reads it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"faultyrank/internal/core"
	"faultyrank/internal/inject"
	"faultyrank/internal/telemetry"
	"faultyrank/internal/wire"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	log.SetFlags(0)
	log.SetPrefix("frrankd: ")
	var (
		connect   = flag.String("connect", "", "coordinator rank-exchange address (host:port, required)")
		part      = flag.Int("part", -1, "partition index to serve (required)")
		workers   = flag.Int("workers", 1, "parallelism of the local gather kernel")
		opTimeout = flag.Duration("op-timeout", 30*time.Second, "per-frame read/write deadline on the superstep link")
		failUps   = flag.Int("fail-after-ups", -1, "crash the worker after this many upstream frames (fault injection; <0 = disabled)")
		verbose   = flag.Bool("v", false, "log completion")
	)
	flag.Parse()

	if *connect == "" || *part < 0 {
		log.Print("-connect and -part are required")
		return 1
	}
	var wrap func(core.Link) core.Link
	if *failUps >= 0 {
		wrap = (&inject.RankFault{CrashAfterUps: *failUps}).WrapLink
	}
	err := wire.ServeRankWorker(context.Background(), *connect, *part, *workers, *opTimeout, wrap)
	fmt.Printf("peak_rss_bytes=%d\n", telemetry.PeakRSS())
	if err != nil {
		log.Printf("partition %d: %v", *part, err)
		return 1
	}
	if *verbose {
		log.Printf("partition %d done", *part)
	}
	return 0
}
