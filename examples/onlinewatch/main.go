// Onlinewatch: demonstrate the online-FaultyRank extension (the paper's
// §VIII future work). A Tracker follows a live cluster through its
// change feed: checks after mutation batches re-parse only the touched
// inodes, and corruption is caught within one online check — no unmount,
// no full rescan.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"faultyrank/internal/checker"
	"faultyrank/internal/inject"
	"faultyrank/internal/lustre"
	"faultyrank/internal/online"
	"faultyrank/internal/workload"
)

func main() {
	log.SetFlags(0)

	cfg := lustre.DefaultConfig()
	cfg.NumOSTs = 4
	cluster, err := lustre.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := workload.Populate(cluster, workload.DefaultTreeSpec(2000, 7)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("live cluster: %d inodes total\n", cluster.TotalInodes())

	tracker, err := online.NewTracker(checker.ClusterImages(cluster), checker.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tracker initialised (one full scan; everything after is incremental)")

	// Normal activity: the next check re-parses only what changed.
	for i := 0; i < 25; i++ {
		if _, err := cluster.Create(fmt.Sprintf("/hot-%02d.dat", i), 2*64<<10); err != nil {
			log.Fatal(err)
		}
	}
	res, err := tracker.Check()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after 25 creates: refreshed %d of %d inodes in %v — findings: %d\n",
		res.InodesRefreshed, cluster.TotalInodes(), res.TUpdate.Round(1000), len(res.Findings))

	// A fault lands mid-flight; the next online check catches it.
	inj, err := inject.Inject(cluster, inject.MismatchFilterFID, "/hot-07.dat")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("injected live: %s\n", inj.Description)
	res, err = tracker.Check()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("online check: refreshed %d inodes, %d finding(s)\n",
		res.InodesRefreshed, len(res.Findings))
	for _, f := range res.Findings {
		fmt.Printf("  [%v] %v — %s\n", f.Kind, f.FID, f.Detail)
	}
	// Watch mode as a library: a live mutator and the watcher share the
	// quiesce lock, and every round after the first attempts to
	// warm-start its ranking from the previous result (falling back to a
	// cold start when the seed does not converge within its budget).
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			_, _ = cluster.Create(fmt.Sprintf("/bg-%03d.dat", i), 64<<10)
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
		}
	}()
	err = tracker.Watch(context.Background(), online.WatchOptions{
		Interval: 25 * time.Millisecond,
		Rounds:   4,
		Quiesce:  &mu,
		OnRound: func(round int, res *online.CheckResult) {
			start := "warm"
			if !res.Warm {
				start = "cold"
			}
			rank := fmt.Sprintf("%d iteration(s) %s-start", res.Rank.Iterations, start)
			if res.Rank.Skipped {
				rank = "rank skipped"
			}
			fmt.Printf("watch round %d: refreshed %d inode(s), %d finding(s), %s\n",
				round, res.InodesRefreshed, len(res.Findings), rank)
		},
	})
	close(stop)
	wg.Wait()
	if err != nil {
		log.Fatal(err)
	}

	st := tracker.Stats()
	fmt.Printf("tracker lifetime: %d updates, %d inodes re-parsed (vs %d for one offline scan)\n",
		st.UpdateRounds, st.InodesRescanned, cluster.TotalInodes())
}
