package online

import (
	"fmt"
	"testing"
	"time"

	"faultyrank/internal/checker"
)

// TestCheckAccountsForItsTime: a round's three stage timings cover the
// round. Materialize, the warm-vector lift and the warm-state save used
// to fall between TUpdate, TGraph and TRank — most of a round's wall
// time with no field reporting it. Every stage is timed on every round,
// and the timers cover the wall time summed over warmRounds rounds: a
// single ≈ 1 ms round can lose a fifth of itself to one preemption
// between two timers, which made a per-round bound fail about 2 runs in
// 100. The cluster stays clean, so it runs twice: with the default
// options every round skips its rank and none runs warm (TRank still
// times the classification); with core.Options.AlwaysRank every round
// after the first runs warm, timing the lift, the warm kernel and the
// warm-state save.
func TestCheckAccountsForItsTime(t *testing.T) {
	for _, always := range []bool{false, true} {
		t.Run(fmt.Sprintf("AlwaysRank=%v", always), func(t *testing.T) { checkAccountsForItsTime(t, always) })
	}
}

func checkAccountsForItsTime(t *testing.T, always bool) {
	const warmRounds = 24
	c := newCluster(t)
	for i := 0; i < 1500; i++ {
		if _, err := c.Create(fmt.Sprintf("/w/bulk%04d", i), 2*64<<10); err != nil {
			t.Fatal(err)
		}
	}
	opt := checker.DefaultOptions()
	opt.Core.AlwaysRank = always
	tr, err := NewTracker(checker.ClusterImages(c), opt)
	if err != nil {
		t.Fatal(err)
	}
	var wall, accounted time.Duration
	for round := 0; round <= warmRounds; round++ { // the first is the initial check
		if _, err := c.Create(fmt.Sprintf("/w/new%d", round), 2*64<<10); err != nil {
			t.Fatal(err)
		}
		if err := c.Unlink(fmt.Sprintf("/w/bulk%04d", round)); err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		res, err := tr.Check()
		d := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rank.Skipped == always || res.Warm != (always && round > 0) {
			t.Fatalf("round %d: warm = %v, rank skipped = %v on a clean cluster with AlwaysRank %v",
				round, res.Warm, res.Rank.Skipped, always)
		}
		if res.TUpdate <= 0 || res.TGraph <= 0 || res.TRank <= 0 {
			t.Fatalf("round %d: a stage went untimed: TUpdate %v TGraph %v TRank %v", round, res.TUpdate, res.TGraph, res.TRank)
		}
		if round > 0 {
			wall += d
			accounted += res.TUpdate + res.TGraph + res.TRank
		}
	}
	if accounted < wall*8/10 {
		t.Fatalf("%d rounds: the stage timers account for %v of %v", warmRounds, accounted, wall)
	}
}
