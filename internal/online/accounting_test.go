package online

import (
	"fmt"
	"testing"
	"time"
)

// TestCheckAccountsForItsTime: a round's three stage timings cover the
// round. Materialize, the warm-vector lift and the warm-state save used
// to fall between TUpdate, TGraph and TRank — most of a round's wall
// time with no field reporting it. Every stage is timed on every round,
// and the timers cover the wall time summed over warmRounds rounds: a
// single ≈ 1 ms round can lose a fifth of itself to one preemption
// between two timers, which made a per-round bound fail about 2 runs in
// 100.
func TestCheckAccountsForItsTime(t *testing.T) {
	const warmRounds = 24
	c := newCluster(t)
	for i := 0; i < 1500; i++ {
		if _, err := c.Create(fmt.Sprintf("/w/bulk%04d", i), 2*64<<10); err != nil {
			t.Fatal(err)
		}
	}
	tr := newTracker(t, c)
	var wall, accounted time.Duration
	for round := 0; round <= warmRounds; round++ { // the first is cold, the rest warm
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
		if res.Warm != (round > 0) {
			t.Fatalf("round %d: warm = %v", round, res.Warm)
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
		t.Fatalf("%d warm rounds: the stage timers account for %v of %v", warmRounds, accounted, wall)
	}
}
