package online

import (
	"fmt"
	"reflect"
	"testing"

	"faultyrank/internal/checker"
	"faultyrank/internal/inject"
	"faultyrank/internal/repair"
)

// TestSkippedRoundsDropWarmState: a round whose graph has every relation
// paired skips its rank, and so is neither warm nor a warm fallback. It
// drops the warm state and the dirty seeds, which are relative to ranks
// the graph has moved on from: after twenty such rounds the seeds have
// not accumulated, the round that meets a standing fault ranks cold —
// bit for bit a fresh cold analysis of its graph — and the round after
// it runs warm again.
func TestSkippedRoundsDropWarmState(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)

	// A fault first, so there is warm state to drop: ranked cold, then
	// warm, then repaired.
	if _, err := inject.Inject(c, inject.MismatchFilterFID, "/w/f02"); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		res, err := tr.Check()
		if err != nil {
			t.Fatal(err)
		}
		if res.Warm != (round == 2) || !res.Rank.Converged || !tr.haveWarm {
			t.Fatalf("faulty round %d: warm %v, converged %v, warm state %v", round, res.Warm, res.Rank.Converged, tr.haveWarm)
		}
		if round == 2 {
			repair.NewEngine(tr.images, res.Result).Apply(res.Findings)
		}
	}

	fallbacks := tr.Stats().WarmFallbacks
	for round := 0; round < 20; round++ {
		if _, err := c.Create(fmt.Sprintf("/w/clean%02d", round), 2*64<<10); err != nil {
			t.Fatal(err)
		}
		res, err := tr.Check()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Rank.Skipped || res.Warm || len(res.Findings) != 0 {
			t.Fatalf("clean round %d: skipped %v, warm %v, %d findings",
				round, res.Rank.Skipped, res.Warm, len(res.Findings))
		}
		if tr.haveWarm || tr.Stats().WarmFallbacks != fallbacks {
			t.Fatalf("clean round %d: warm state kept %v, %d fallbacks", round, tr.haveWarm, tr.Stats().WarmFallbacks-fallbacks)
		}
		// Nothing changed since the round: the seeds were reset with it.
		// (Materialize rewrites res.Unified, which is not read again.)
		if seeds := tr.delta.Materialize().DirtySeeds; len(seeds) != 0 {
			t.Fatalf("clean round %d: %d dirty seeds carried over", round, len(seeds))
		}
	}

	if _, err := inject.Inject(c, inject.MismatchFilterFID, "/w/f05"); err != nil {
		t.Fatal(err)
	}
	res, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	if res.Warm || res.Rank.Skipped || !res.Rank.Converged || len(res.Findings) == 0 {
		t.Fatalf("fault round: warm %v, skipped %v, converged %v, %d findings",
			res.Warm, res.Rank.Skipped, res.Rank.Converged, len(res.Findings))
	}
	cold := &checker.Result{}
	if err := checker.AnalyzeUnified(cold, tr.images, res.Unified, checker.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if res.Rank.Iterations != cold.Rank.Iterations || !sameBits(res.Rank.IDRank, cold.Rank.IDRank) ||
		!sameBits(res.Rank.PropRank, cold.Rank.PropRank) || !sameBits(res.Rank.Diffs, cold.Rank.Diffs) {
		t.Fatalf("fault round: %d iterations, cold %d, or rank bits differ", res.Rank.Iterations, cold.Rank.Iterations)
	}
	if !reflect.DeepEqual(res.Report, cold.Report) || !reflect.DeepEqual(res.Findings, cold.Findings) {
		t.Fatalf("fault round: findings differ from a cold check:\n %v\n %v", res.Findings, cold.Findings)
	}

	next, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !next.Warm || !next.Rank.Converged {
		t.Fatalf("round after the fault: warm %v, converged %v", next.Warm, next.Rank.Converged)
	}
	assertFindingsMatch(t, next.Result, coldAnalyze(t, c), false)
}
