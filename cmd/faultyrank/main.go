// Command faultyrank runs the full graph-based checking pipeline (paper
// Fig. 6) on a cluster image directory: parallel scanners → aggregator
// (FID→GID remap + CSR build) → the FaultyRank iterative algorithm →
// fault classification, and optionally applies the recommended repairs.
//
//	faultyrank -dir cluster/            # check only
//	faultyrank -dir cluster/ -repair    # check, repair, verify, persist
//	faultyrank -dir cluster/ -tcp       # ship partial graphs over TCP
//	faultyrank -dir cluster/ -metrics-addr :9090   # live /metrics + pprof
//	faultyrank -dir cluster/ -run-manifest run.json # machine-readable record
//	faultyrank -dir cluster/ -tcp -cluster-manifest cm.json # per-server telemetry + skew
//	faultyrank -dir cluster/ -online                # incremental check from the change feed
//	faultyrank -dir cluster/ -online -watch 2s      # loop update→check, print per-round deltas
//	faultyrank -dir cluster/ -online -state st/     # durable tracker state: resume + save snapshots
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"time"

	"faultyrank/internal/checker"
	"faultyrank/internal/imgdir"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/online"
	"faultyrank/internal/repair"
	"faultyrank/internal/telemetry"
)

// main delegates to realMain so deferred cleanup — most importantly the
// graceful -metrics-addr shutdown, which drains an in-flight scrape
// instead of resetting it — runs on every exit path. Failure paths
// return an exit code instead of calling os.Exit/log.Fatal mid-stack
// (either would skip the defers).
func main() {
	os.Exit(realMain())
}

// fail logs an error and returns the tool's failure exit code — 1,
// matching the log.Fatal paths this replaced (findings-present also
// exits 1; scripts distinguish the two by the report on stdout).
func fail(err error) int {
	log.Print(err)
	return 1
}

func realMain() int {
	log.SetFlags(0)
	log.SetPrefix("faultyrank: ")
	var (
		dir       = flag.String("dir", "cluster", "cluster image directory")
		doRepair  = flag.Bool("repair", false, "apply recommended repairs and verify")
		useTCP    = flag.Bool("tcp", false, "stream scanner chunks over localhost TCP")
		scanTO    = flag.Duration("scan-timeout", 0, "deadline on the scan stage, in process or over TCP (0 = none)")
		degraded  = flag.Bool("degraded", false, "complete from the servers that finished when scanners are lost")
		workers   = flag.Int("workers", 0, "parallelism (0 = GOMAXPROCS)")
		chunk     = flag.Int("chunk", 0, "entries per streamed scanner chunk (0 = default)")
		epsilon   = flag.Float64("epsilon", 0.1, "convergence epsilon (max |Δ id_rank|)")
		threshold = flag.Float64("threshold", 0.4, "fault threshold on mean-1-scaled ranks")
		weight    = flag.Float64("unpaired-weight", 0.1, "unpaired edge weight in the reversed graph")
		verbose   = flag.Bool("v", false, "print ranks of suspicious vertices and the repair log")
		metrics   = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address while running")
		manifest  = flag.String("run-manifest", "", "write a machine-readable run manifest (JSON) to this path")
		clusterMf = flag.String("cluster-manifest", "", "write the per-server cluster manifest (JSON) to this path")
		profRates = flag.Int("profile-rates", 0, "enable mutex/block profiling at this sampling rate (for /debug/pprof)")
		useOnline = flag.Bool("online", false, "incremental online check: track the change feed instead of a full offline scan")
		watch     = flag.Duration("watch", 0, "with -online: loop update→check at this interval, printing per-round deltas")
		watchN    = flag.Int("watch-rounds", 0, "with -online -watch: stop after this many rounds (0 = until interrupted)")
		stateDir  = flag.String("state", "", "with -online: durable tracker state directory — resume from its snapshot when present, save after every check")
		journalD  = flag.String("journal", "", "write the run's flight-recorder journal (journal.frjr) into this directory; render it with frtrace")
	)
	flag.Parse()

	if *useOnline && *doRepair {
		return fail(errors.New("-online is check-only: apply repairs with an offline -repair run"))
	}
	if (*watch != 0 || *watchN != 0) && !*useOnline {
		return fail(errors.New("-watch/-watch-rounds require -online"))
	}
	if *stateDir != "" && !*useOnline {
		return fail(errors.New("-state requires -online"))
	}

	if *profRates > 0 {
		runtime.SetMutexProfileFraction(*profRates)
		runtime.SetBlockProfileRate(*profRates)
	}

	images, err := imgdir.Load(*dir)
	if err != nil {
		return fail(err)
	}
	opt := checker.DefaultOptions()
	opt.UseTCP = *useTCP
	opt.ScanTimeout = *scanTO
	opt.AllowDegraded = *degraded
	opt.Workers = *workers
	opt.ChunkSize = *chunk
	opt.Core.Epsilon = *epsilon
	opt.Core.Threshold = *threshold
	opt.Core.UnpairedWeight = *weight

	// The flight recorder: every run journals into jr via opt.Journal;
	// dump writes the collected sections (coordinator lane plus every
	// per-server lane that recorded an event) next to nothing else —
	// the file frtrace renders into a timeline.
	var jr *telemetry.Journal
	dump := func([]telemetry.JournalSnapshot) {}
	if *journalD != "" {
		jr = telemetry.NewJournal(0)
		jr.SetServer("coordinator")
		opt.Journal = jr
		path := filepath.Join(*journalD, "journal.frjr")
		dump = func(sections []telemetry.JournalSnapshot) {
			if err := os.MkdirAll(*journalD, 0o755); err != nil {
				log.Printf("journal: %v", err)
				return
			}
			if err := telemetry.WriteJournalFile(path, sections); err != nil {
				log.Printf("journal: %v", err)
				return
			}
			log.Printf("journal written to %s (render with frtrace)", path)
		}
	}

	if *metrics != "" {
		reg := telemetry.NewRegistry()
		opt.Metrics = reg
		bound, stop, err := telemetry.Serve(*metrics, reg)
		if err != nil {
			return fail(err)
		}
		defer func() {
			if err := stop(); err != nil {
				log.Printf("metrics shutdown: %v", err)
			}
		}()
		log.Printf("serving /metrics and /debug/pprof on %s", bound)
	}
	if *manifest != "" {
		// The manifest records the convergence series; recording it is
		// cheap and bounded (core.DefaultTraceCap).
		opt.Core.ConvergenceTrace = true
	}

	if *useOnline {
		return runOnline(images, opt, *stateDir, *watch, *watchN, *verbose, *manifest, *clusterMf, jr, dump)
	}

	res, err := checker.Run(images, opt)
	if err != nil {
		// The run died before producing a result; the coordinator-lane
		// journal still records how far it got and what failed.
		if jr != nil {
			dump([]telemetry.JournalSnapshot{jr.Snapshot()})
		}
		return fail(err)
	}
	if jr != nil {
		if res.Coverage.Degraded() {
			log.Printf("degraded completion (missing: %v) — the journal records the failure sequence", res.Coverage.Missing)
		}
		dump(res.Journal)
	}
	if err := res.WriteReport(os.Stdout, *verbose); err != nil {
		return fail(err)
	}
	if *manifest != "" {
		if err := telemetry.WriteJSON(*manifest, res.Manifest(opt)); err != nil {
			return fail(err)
		}
		log.Printf("run manifest written to %s", *manifest)
	}
	if *clusterMf != "" {
		if err := telemetry.WriteJSON(*clusterMf, res.Cluster); err != nil {
			return fail(err)
		}
		log.Printf("cluster manifest written to %s", *clusterMf)
	}
	if len(res.Findings) == 0 {
		return 0
	}
	if !*doRepair {
		return 1 // findings present, nothing repaired
	}
	eng := repair.NewEngine(images, res)
	sum := eng.Apply(res.Findings)
	fmt.Printf("repair: %d applied, %d skipped\n", sum.Applied, sum.Skipped)
	if *verbose {
		for _, l := range sum.Log {
			fmt.Printf("  %s\n", l)
		}
	}
	verify, err := checker.Run(images, opt)
	if err != nil {
		return fail(err)
	}
	if len(verify.Findings) == 0 && verify.Stats.UnpairedEdges == 0 {
		fmt.Println("verification: file system is consistent after repair")
	} else {
		fmt.Printf("verification: %d findings remain, %d unpaired edges\n",
			len(verify.Findings), verify.Stats.UnpairedEdges)
		for _, f := range verify.Findings {
			fmt.Printf("  residual [%v] %v %s\n", f.Kind, f.FID, f.Detail)
		}
	}
	if err := imgdir.Save(*dir, images); err != nil {
		return fail(err)
	}
	fmt.Printf("repaired images written back to %s\n", *dir)
	return 0
}

// runOnline is the -online mode: an incremental Tracker over the loaded
// images. Without -watch it runs one update→check and reports like an
// offline run; with -watch it loops, printing one delta line per round.
// With -state it opens the tracker with online.Open and saves after
// every check. Returns exit code 1 when the (last) check surfaced
// findings.
func runOnline(images []*ldiskfs.Image, opt checker.Options, stateDir string, interval time.Duration, rounds int, verbose bool, manifest, clusterMf string, jr *telemetry.Journal, dump func([]telemetry.JournalSnapshot)) int {
	tr, err := online.Open(stateDir, images, opt, log.Printf)
	if err != nil {
		return fail(err)
	}
	saveState := func() error {
		if stateDir == "" {
			return nil
		}
		return tr.SaveState(stateDir)
	}
	writeManifests := func(res *online.CheckResult, runManifest *telemetry.RunManifest) error {
		if manifest != "" {
			if err := telemetry.WriteJSON(manifest, runManifest); err != nil {
				return err
			}
			log.Printf("run manifest written to %s", manifest)
		}
		if clusterMf != "" {
			if err := telemetry.WriteJSON(clusterMf, res.Cluster); err != nil {
				return err
			}
			log.Printf("cluster manifest written to %s", clusterMf)
		}
		return nil
	}
	if interval == 0 && rounds == 0 {
		res, err := tr.Check()
		if err != nil {
			if jr != nil {
				dump([]telemetry.JournalSnapshot{jr.Snapshot()})
			}
			return fail(err)
		}
		if jr != nil {
			dump(res.Journal)
		}
		if err := saveState(); err != nil {
			return fail(err)
		}
		if err := res.WriteReport(os.Stdout, verbose); err != nil {
			return fail(err)
		}
		if err := writeManifests(res, res.Manifest(opt)); err != nil {
			return fail(err)
		}
		if len(res.Findings) > 0 {
			return 1
		}
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// last is the last round's result. Its Rank, Graph and Unified are the
	// tracker's working set, which a later round — even one that fails —
	// rewrites, so the run manifest that reads them is taken in the round.
	var last *online.CheckResult
	var lastManifest *telemetry.RunManifest
	var roundErr error
	prevFindings := 0
	err = tr.Watch(ctx, online.WatchOptions{
		Interval: interval,
		Rounds:   rounds,
		OnRound: func(round int, res *online.CheckResult) {
			if err := saveState(); err != nil {
				roundErr = err
				stop() // end the watch; the error surfaces below
				return
			}
			start := "warm"
			if !res.Warm {
				start = "cold"
			}
			rank := fmt.Sprintf("%d iteration(s) %s-start", res.Rank.Iterations, start)
			if res.Rank.Skipped {
				rank = "rank skipped"
			}
			if fs := res.Rank.Frontier; fs != nil {
				rank += fmt.Sprintf(", frontier %d seed(s) %d touched %d full-sweep(s)",
					fs.Seeds, fs.Touched, fs.FullSweeps)
			}
			fmt.Printf("round %d: refreshed %d inode(s), findings %d (%+d), %s, update %.4fs graph %.4fs rank %.4fs\n",
				round, res.InodesRefreshed, len(res.Findings), len(res.Findings)-prevFindings, rank,
				res.TUpdate.Seconds(), res.TGraph.Seconds(), res.TRank.Seconds())
			for _, rr := range res.PerServer {
				fmt.Printf("  %s: %d refreshed, %d dropped\n", rr.Server, rr.Refreshed, rr.Dropped)
			}
			if verbose {
				for _, f := range res.Findings {
					fmt.Printf("  [%v] %v %s\n", f.Kind, f.FID, f.Detail)
				}
			}
			prevFindings = len(res.Findings)
			last = res
			if manifest != "" {
				lastManifest = res.Manifest(opt)
			}
		},
	})
	if roundErr != nil {
		return fail(roundErr)
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		// A failed round ended the watch: dump what the flight recorder
		// saw up to and including the failure.
		if jr != nil {
			dump([]telemetry.JournalSnapshot{jr.Snapshot()})
		}
		return fail(err)
	}
	if jr != nil && last != nil {
		dump(last.Journal)
	}
	if last != nil {
		if err := writeManifests(last, lastManifest); err != nil {
			return fail(err)
		}
		if len(last.Findings) > 0 {
			return 1
		}
	}
	return 0
}
