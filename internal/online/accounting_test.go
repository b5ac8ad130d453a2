package online

import (
	"fmt"
	"testing"
	"time"
)

// TestCheckAccountsForItsTime: a round's three stage timings cover the
// round. Materialize, the warm-vector lift and the warm-state save used
// to fall between TUpdate, TGraph and TRank — most of a round's wall
// time with no field reporting it.
func TestCheckAccountsForItsTime(t *testing.T) {
	c := newCluster(t)
	for i := 0; i < 1500; i++ {
		if _, err := c.Create(fmt.Sprintf("/w/bulk%04d", i), 2*64<<10); err != nil {
			t.Fatal(err)
		}
	}
	tr := newTracker(t, c)
	for round := 0; round < 4; round++ { // the first is cold, the rest warm
		if _, err := c.Create(fmt.Sprintf("/w/new%d", round), 2*64<<10); err != nil {
			t.Fatal(err)
		}
		if err := c.Unlink(fmt.Sprintf("/w/bulk%04d", round)); err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		res, err := tr.Check()
		wall := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Warm != (round > 0) {
			t.Fatalf("round %d: warm = %v", round, res.Warm)
		}
		if accounted := res.TUpdate + res.TGraph + res.TRank; accounted < wall*8/10 {
			t.Fatalf("round %d: TUpdate %v + TGraph %v + TRank %v = %v of a %v round",
				round, res.TUpdate, res.TGraph, res.TRank, accounted, wall)
		}
	}
}
