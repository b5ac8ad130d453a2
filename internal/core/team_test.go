package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"faultyrank/internal/graph"
)

// goroutinesSettle waits for the goroutine count to fall back to base.
// stop returns when the last helper is past its final use of the kernel;
// the runtime still counts it until it has been retired, so the count is
// polled — against a deadline that only a leaked goroutine reaches.
func goroutinesSettle(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, %d before the call\n%s", what, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// breakingLink is a worker's end of a link pair that fails, and tears
// the pair down, on its failAt'th Recv: the Init is 1, the first
// superstep's DownA 2, so 3 breaks between two sweeps of a live team.
type breakingLink struct {
	*LocalLink
	recvs, failAt int
}

var errLinkBroke = errors.New("link broke")

func (l *breakingLink) Recv() (*RankDelta, error) {
	if l.recvs++; l.recvs == l.failAt {
		l.Close()
		return nil, errLinkBroke
	}
	return l.LocalLink.Recv()
}

// TestTeamStopsWithItsRun: no helper outlives the call that started it —
// on the early returns (no rows, no iterations), at an unconverged cap,
// with more workers than row blocks or than processors, and when a
// partition's link breaks under a team that is between sweeps.
func TestTeamStopsWithItsRun(t *testing.T) {
	b := blockSpanningGraph() // three row blocks
	n := b.N()
	empty := graph.NewBidirected(0, nil, 1)
	dirty := []uint32{1, uint32(n / 2), uint32(n - 1)}

	cases := []struct {
		name string
		g    *graph.Bidirected
		tune func(*Options)
	}{
		{"no rows", empty, func(o *Options) {}},
		{"no iterations", b, func(o *Options) { o.MaxIterations = 0 }},
		{"unconverged cap", b, func(o *Options) { o.Epsilon, o.MaxIterations = 0, 3 }},
		{"more workers than blocks", b, func(o *Options) { o.Workers, o.MaxIterations = 16, 3 }},
	}
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		prev := runtime.GOMAXPROCS(procs)
		for _, tc := range cases {
			opt := DefaultOptions()
			opt.Workers = 4
			tc.tune(&opt)
			what := func(fn string) string { return fmt.Sprintf("%s/%s/procs=%d", fn, tc.name, procs) }
			base := runtime.NumGoroutine()

			Run(tc.g, opt)
			goroutinesSettle(t, what("Run"), base)

			inc := opt
			inc.InitialID, inc.InitialProp = filled(tc.g.N(), 1), filled(tc.g.N(), 1)
			if res := RunIncremental(tc.g, inc, dirty); tc.g == b && res.Frontier == nil {
				t.Fatalf("%s delegated to Run", what("RunIncremental"))
			}
			goroutinesSettle(t, what("RunIncremental"), base)

			if tc.g == b {
				// Two partitions with two workers each: every shard has a
				// block and a half of rows, so each worker has a team.
				plan := graph.PartitionPlan(b, testOwners(n, 2, 3), 2, 0)
				if _, _, err := RunPartitioned(plan, opt); err != nil {
					t.Fatalf("%s: %v", what("RunPartitioned"), err)
				}
				goroutinesSettle(t, what("RunPartitioned"), base)
			}
		}
		runtime.GOMAXPROCS(prev)
	}

	plan := graph.PartitionPlan(b, testOwners(n, 2, 3), 2, 0)
	opt := DefaultOptions()
	opt.Epsilon, opt.MaxIterations = 0, 3
	for failAt := 1; failAt <= 4; failAt++ {
		base := runtime.NumGoroutine()
		links := make([]Link, plan.K)
		var wg sync.WaitGroup
		for p := range links {
			coord, end := LinkPair()
			links[p] = coord
			var link Link = end
			if p == 1 {
				link = &breakingLink{LocalLink: end, failAt: failAt}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := RunPartition(plan.Parts[p], 2, link); err != nil {
					end.Close()
				}
			}()
		}
		_, _, err := Coordinate(plan, links, opt)
		for _, l := range links {
			l.(*LocalLink).Close()
		}
		wg.Wait()
		var pe *PartError
		if !errors.As(err, &pe) {
			t.Fatalf("link broken at Recv %d: Coordinate returned %v, want a PartError", failAt, err)
		}
		goroutinesSettle(t, "RunPartition on a broken link", base)
	}
}

// TestTeamWakesFromPark: a gap between two sweeps that outlasts the spin
// budget many times over leaves the helpers asleep when the next one is
// released, so each sweep takes the wake path — and still lands on the
// bits one worker computes. First on a kernel with a team of three forced
// on it, whatever the processor count, so that -cpu 1 runs the wake path
// with every helper sharing the caller's processor; then through Run, with
// an OnIteration hook that sleeps.
func TestTeamWakesFromPark(t *testing.T) {
	b := blockSpanningGraph()
	n := b.N()
	opt := DefaultOptions()
	opt.Epsilon, opt.MaxIterations = 0, 6
	opt.Workers = 1
	want := Run(b, opt)

	k := graphKernel(b, opt, &workspace{})
	k.start(3)
	defer k.stop()
	gap := func() { time.Sleep(20 * spinBudget) }
	id, prop := seedRanks(n, opt, nil, nil)
	gap()
	k.seed(id, prop)
	for range opt.MaxIterations {
		base, perSink := sinkShares(foldBlocks(k.partA), n, opt.SinkPolicy)
		gap()
		k.phaseA(allRows(n), base, perSink)
		base, perSink = sinkShares(foldBlocks(k.partB), n, opt.SinkPolicy)
		gap()
		k.phaseB(allRows(n), base, perSink)
	}
	exactlyEqual(t, "id after parked sweeps", id, want.IDRank)
	exactlyEqual(t, "prop after parked sweeps", prop, want.PropRank)

	opt.Workers = 4
	opt.OnIteration = func(int, float64) { gap() }
	assertSameResult(t, Run(b, opt), want)
}
