package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"faultyrank/internal/core"
	"faultyrank/internal/graph"
	"faultyrank/internal/wire"
)

// runOverTCP is core.RunPartitioned with the channel links replaced by
// the rank exchange: each worker is a wire.ServeRankWorker goroutine
// handed its shard, so its kernel constants and every superstep frame
// cross the versioned codec.
func runOverTCP(t *testing.T, plan *graph.Plan, opt core.Options) *core.Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	x, addr, err := wire.NewRankExchange(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	var wg sync.WaitGroup
	for _, sub := range plan.Parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := wire.ServeRankWorker(ctx, addr, sub, opt.PartitionWorkers(plan.K), 5*time.Second); err != nil {
				t.Errorf("worker %d: %v", sub.Part, err)
			}
		}()
	}
	links, err := x.AcceptWorkers(ctx, plan.K)
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	got, _, err := core.Coordinate(plan, links, opt)
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	wg.Wait()
	return got
}

// TestBitIdentityMatrix: however the iteration is run — any worker count
// over the dynamically handed-out blocks, the whole graph or K
// partitions, channel links or TCP — it returns the ranks, the
// convergence series and the iteration count of the Workers: 1 Run, bit
// for bit. The two graphs sit below one kernel block (4096 rows) and
// across one with a ragged second; the options cover every sink policy
// under both distributions. The small graph runs to convergence, the
// large one is cut off after 16 iterations (the cap's halt path).
func TestBitIdentityMatrix(t *testing.T) {
	for _, n := range []int{300, 4096 + 517} {
		b := core.UnpairedSinkGraph(n)
		var plans []*graph.Plan
		for _, k := range []int{1, 2, 3} {
			owners := make([]uint16, n)
			r := rand.New(rand.NewSource(int64(k)))
			for g := range owners {
				owners[g] = uint16(r.Intn(k))
			}
			plans = append(plans, graph.PartitionPlan(b, owners, k, 0))
		}
		for _, policy := range []core.SinkPolicy{core.SinkToOthers, core.SinkToAll, core.SinkDrop} {
			for _, leaky := range []bool{false, true} {
				t.Run(fmt.Sprintf("n=%d/%v/leaky=%v", n, policy, leaky), func(t *testing.T) {
					opt := core.DefaultOptions()
					opt.SinkPolicy, opt.LeakyDistribution, opt.Workers = policy, leaky, 1
					if n > 4096 {
						opt.MaxIterations = 16
					}
					want := core.Run(b, opt)
					for _, workers := range []int{1, 2, 3, 8} {
						opt.Workers = workers
						same := func(how string, got *core.Result) {
							t.Run(fmt.Sprintf("workers=%d/%s", workers, how), func(t *testing.T) { core.AssertSameResult(t, got, want) })
						}
						same("Run", core.Run(b, opt))
						for _, plan := range plans {
							got, _, err := core.RunPartitioned(plan, opt)
							if err != nil {
								t.Fatalf("workers=%d K=%d LinkPair: %v", workers, plan.K, err)
							}
							same(fmt.Sprintf("K=%d/LinkPair", plan.K), got)
							same(fmt.Sprintf("K=%d/TCP", plan.K), runOverTCP(t, plan, opt))
						}
					}
				})
			}
		}
	}
}
