package checker

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"faultyrank/internal/core"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

// rankEqualBitwise demands bit-identical rank vectors and the same
// convergence record.
func rankEqualBitwise(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if len(got.IDRank) != len(want.IDRank) {
		t.Fatalf("%s: rank length %d want %d", label, len(got.IDRank), len(want.IDRank))
	}
	for i := range got.IDRank {
		if math.Float64bits(got.IDRank[i]) != math.Float64bits(want.IDRank[i]) ||
			math.Float64bits(got.PropRank[i]) != math.Float64bits(want.PropRank[i]) {
			t.Fatalf("%s: rank %d diverges from the reference run", label, i)
		}
	}
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("%s: iterations %d/%v want %d/%v", label, got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
}

// TestRankWorkersFindingsIdentical: the deprecated RankWorkers option is
// inert. On a faulted cluster, whose graph ranks, RankWorkers 2 returns
// the findings and the rank bits of RankWorkers 0 behind both scan
// paths, and RankExec stays nil.
func TestRankWorkersFindingsIdentical(t *testing.T) {
	c := fig7Cluster(t)
	if _, err := inject.Inject(c, inject.DanglingObjectID, fig7Target); err != nil {
		t.Fatal(err)
	}
	images := ClusterImages(c)

	for _, useTCP := range []bool{false, true} {
		run := func(k int) *Result {
			opt := DefaultOptions()
			opt.UseTCP = useTCP
			opt.RankWorkers = k
			res, err := Run(images, opt)
			if err != nil {
				t.Fatalf("tcp=%v/k=%d: %v", useTCP, k, err)
			}
			if res.RankExec != nil {
				t.Fatalf("tcp=%v/k=%d: rank manifest %+v, want nil", useTCP, k, res.RankExec)
			}
			return res
		}
		base := run(0)
		if base.Rank.Skipped || base.Rank.Iterations == 0 || len(base.Findings) == 0 {
			t.Fatalf("tcp=%v: reference skipped=%v iterations=%d findings=%d; the comparison would be vacuous",
				useTCP, base.Rank.Skipped, base.Rank.Iterations, len(base.Findings))
		}
		label := fmt.Sprintf("tcp=%v/k=2", useTCP)
		res := run(2)
		rankEqualBitwise(t, label, res.Rank, base.Rank)
		if !reflect.DeepEqual(res.Findings, base.Findings) {
			t.Fatalf("%s: findings diverge from the RankWorkers 0 run", label)
		}
	}
}

// TestRankWorkersSkipCleanGraph: on a clean cluster a RankWorkers > 1
// check is the K = 1 check — the same skipped rank, the same findings —
// and the journal records the skip and no other rank event.
func TestRankWorkersSkipCleanGraph(t *testing.T) {
	images := ClusterImages(fig7Cluster(t))
	base, err := Run(images, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !base.Rank.Skipped {
		t.Fatal("K = 1 reference ranked a clean cluster")
	}
	for _, useTCP := range []bool{false, true} {
		opt := DefaultOptions()
		opt.UseTCP = useTCP
		opt.RankWorkers = 2
		res, err := Run(images, opt)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("tcp=%v/k=2", useTCP)
		rankEqualBitwise(t, label, res.Rank, base.Rank)
		if !res.Rank.Skipped || !reflect.DeepEqual(res.Findings, base.Findings) {
			t.Fatalf("%s: skipped=%v, findings %v want %v", label, res.Rank.Skipped, res.Findings, base.Findings)
		}
		if res.RankExec != nil {
			t.Fatalf("%s: rank manifest %+v, want nil", label, res.RankExec)
		}
		skipped := false
		for _, e := range res.Journal[0].Events {
			if e.Component != "rank" {
				continue
			}
			if e.Kind != "skipped" {
				t.Fatalf("%s: rank event %q on a skipped check", label, e.Kind)
			}
			skipped = true
		}
		if !skipped {
			t.Fatalf("%s: no skipped event in the journal", label)
		}
	}
}

// TestWorkersBoundTheRank: Options.Workers bounds the rank kernel too,
// whatever Core.Workers says. On two processors a Workers 1 check of a
// graph wider than one 4096-row kernel block sweeps without a helper
// goroutine, and a Workers 2 check of the same graph (the control)
// sweeps with one.
func TestWorkersBoundTheRank(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 4, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 10; d++ {
		if err := c.MkdirAll(fmt.Sprintf("/d%d", d)); err != nil {
			t.Fatal(err)
		}
	}
	for f := 0; f < 1500; f++ {
		if _, err := c.Create(fmt.Sprintf("/d%d/f%d", f%10, f), 3*64<<10); err != nil {
			t.Fatal(err)
		}
	}
	images := ClusterImages(c)

	// extra is how many more goroutines run during the rank's iterations
	// than before the check.
	extra := func(workers int) int {
		opt := DefaultOptions()
		opt.Workers = workers
		opt.Core.AlwaysRank = true
		before, during := runtime.NumGoroutine(), 0
		opt.Core.OnIteration = func(int, float64) { during = max(during, runtime.NumGoroutine()) }
		res, err := Run(images, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rank.Iterations == 0 || res.Stats.Vertices <= 4096 {
			t.Fatalf("workers=%d: %d iterations over %d vertices; the probe would be vacuous",
				workers, res.Rank.Iterations, res.Stats.Vertices)
		}
		return during - before
	}
	if n := extra(2); n < 1 {
		t.Fatalf("Workers 2: %d extra goroutines during the rank, want a sweep helper", n)
	}
	if n := extra(1); n > 0 {
		t.Fatalf("Workers 1: %d extra goroutines during the rank, want none", n)
	}
}
