package checker

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"faultyrank/internal/core"
	"faultyrank/internal/inject"
)

// rankEqualBitwise demands bit-identical rank vectors — the partitioned
// path's exactness contract, checked at the findings level elsewhere.
func rankEqualBitwise(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if len(got.IDRank) != len(want.IDRank) {
		t.Fatalf("%s: rank length %d want %d", label, len(got.IDRank), len(want.IDRank))
	}
	for i := range got.IDRank {
		if math.Float64bits(got.IDRank[i]) != math.Float64bits(want.IDRank[i]) ||
			math.Float64bits(got.PropRank[i]) != math.Float64bits(want.PropRank[i]) {
			t.Fatalf("%s: rank %d diverges from single-process kernel", label, i)
		}
	}
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("%s: iterations %d/%v want %d/%v", label, got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
}

// mustHaveRanked fails a test whose AlwaysRank fixture did not iterate:
// a clean cluster that skipped would leave the kernel or the exchange
// under test unexercised.
func mustHaveRanked(t *testing.T, r *core.Result) {
	t.Helper()
	if r.Skipped || r.Iterations == 0 {
		t.Fatalf("AlwaysRank fixture did not iterate: skipped=%v iterations=%d", r.Skipped, r.Iterations)
	}
}

// TestRankWorkersFindingsIdentical: for K ∈ {1,2,3,8} behind both scan
// paths, a partitioned run of a faulty cluster must produce findings
// byte-identical to the single-process run and rank scores that are
// exactly (bitwise) equal — and the K=1 case must stay on the legacy
// kernel (no exchange, no rank manifest).
func TestRankWorkersFindingsIdentical(t *testing.T) {
	c := fig7Cluster(t)
	if _, err := inject.Inject(c, inject.DanglingObjectID, fig7Target); err != nil {
		t.Fatal(err)
	}
	images := ClusterImages(c)

	base, err := Run(images, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Findings) == 0 {
		t.Fatal("baseline run found nothing; the equivalence check would be vacuous")
	}

	for _, useTCP := range []bool{false, true} {
		for _, k := range []int{1, 2, 3, 8} {
			label := fmt.Sprintf("in-process/k=%d", k)
			if useTCP {
				label = fmt.Sprintf("tcp/k=%d", k)
			}

			opt := DefaultOptions()
			opt.UseTCP = useTCP
			opt.RankWorkers = k
			opt.OpTimeout = 10 * time.Second
			res, err := Run(images, opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}

			rankEqualBitwise(t, label, res.Rank, base.Rank)
			if !reflect.DeepEqual(res.Findings, base.Findings) {
				t.Fatalf("%s: findings diverge from single-process run", label)
			}

			if k <= 1 {
				// The degenerate case stays on the legacy kernel.
				if res.RankExec != nil {
					t.Fatalf("%s: rank manifest on the single-kernel path: %+v", label, res.RankExec)
				}
				continue
			}
			man := res.RankExec
			if man == nil {
				t.Fatalf("%s: no rank manifest", label)
			}
			if man.Partitions != k || len(man.Parts) != k {
				t.Fatalf("%s: manifest partitions %d/%d", label, man.Partitions, len(man.Parts))
			}
			if man.Supersteps != res.Rank.Iterations || len(man.Steps) != man.Supersteps {
				t.Fatalf("%s: %d supersteps / %d steps for %d iterations", label, man.Supersteps, len(man.Steps), res.Rank.Iterations)
			}
			if man.UpBytes <= 0 || man.DownBytes <= 0 {
				t.Fatalf("%s: empty exchange accounting: %+v", label, man)
			}
			if man.Fallback != "" {
				t.Fatalf("%s: unexpected fallback %q", label, man.Fallback)
			}
			locals := 0
			for _, p := range man.Parts {
				locals += p.Locals
			}
			if locals != res.Graph.N() {
				t.Fatalf("%s: partitions own %d of %d vertices", label, locals, res.Graph.N())
			}
			if res.Cluster == nil || res.Cluster.Rank != man {
				t.Fatalf("%s: rank manifest not folded into the cluster manifest", label)
			}
			if got := res.Metrics.Counter("rank_supersteps_total"); got != int64(man.Supersteps) {
				t.Fatalf("%s: rank_supersteps_total=%d want %d", label, got, man.Supersteps)
			}
			if got := res.Metrics.Counter("rank_exchange_bytes_total"); got != man.UpBytes+man.DownBytes {
				t.Fatalf("%s: rank_exchange_bytes_total=%d want %d", label, got, man.UpBytes+man.DownBytes)
			}
		}
	}

	// Non-default kernel constants reach the workers in the exchange's
	// Init frame: a coordinator running them gets its own single kernel's
	// bits, never the workers' defaults.
	odd := DefaultOptions()
	odd.Core.UnpairedWeight, odd.Core.Smoothing, odd.Core.LeakyDistribution = 0.3, 0.25, true
	oddBase, err := Run(images, odd)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(oddBase.Rank.IDRank, base.Rank.IDRank) {
		t.Fatal("the odd constants change no rank; their rows would be vacuous")
	}
	for _, k := range []int{2, 3} {
		label := fmt.Sprintf("odd-constants/k=%d", k)
		opt := odd
		opt.RankWorkers = k
		opt.OpTimeout = 10 * time.Second
		res, err := Run(images, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		rankEqualBitwise(t, label, res.Rank, oddBase.Rank)
		if !reflect.DeepEqual(res.Findings, oddBase.Findings) {
			t.Fatalf("%s: findings diverge from single-process run", label)
		}
	}
}

// crashOptions configures a three-way partitioned TCP run with rank
// worker 1 dying mid-superstep (after its first UpA — the crash lands
// between the two phases of an iteration).
//
// The crash has to happen in an exchange, and on a clean cluster only
// AlwaysRank opens one, so the options rank every graph.
func crashOptions(allowDegraded bool) Options {
	opt := DefaultOptions()
	opt.Core.AlwaysRank = true
	opt.UseTCP = true
	opt.RankWorkers = 3
	opt.OpTimeout = 5 * time.Second
	opt.AllowDegraded = allowDegraded
	opt.RankFaults = map[int]*inject.RankFault{1: {CrashAfterUps: 1}}
	return opt
}

// TestRankWorkerCrashTCPDegraded: a rank worker crashing mid-superstep
// on the TCP path must degrade — promptly, never hanging the barrier —
// into the single-process fallback, with the manifest naming the lost
// partition and the findings identical to an undisturbed run.
func TestRankWorkerCrashTCPDegraded(t *testing.T) {
	ctx, cancel := testCtx(t)
	defer cancel()

	c := fig7Cluster(t)
	if _, err := inject.Inject(c, inject.DanglingObjectID, fig7Target); err != nil {
		t.Fatal(err)
	}
	images := ClusterImages(c)

	base, err := Run(images, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	res, err := RunContext(ctx, images, crashOptions(true))
	if err != nil {
		t.Fatalf("degraded run failed outright: %v", err)
	}
	man := res.RankExec
	if man == nil || man.Fallback == "" {
		t.Fatalf("no fallback recorded: %+v", man)
	}
	if !strings.Contains(man.Fallback, "rank partition 1") {
		t.Fatalf("fallback does not name the lost partition: %q", man.Fallback)
	}
	rankEqualBitwise(t, "degraded", res.Rank, base.Rank)
	if !reflect.DeepEqual(res.Findings, base.Findings) {
		t.Fatal("degraded findings diverge from the undisturbed run")
	}
	if res.Cluster == nil || res.Cluster.Rank == nil || res.Cluster.Rank.Fallback == "" {
		t.Fatal("cluster manifest missing the degraded rank section")
	}
}

// TestRankWorkerCrashStrictFails: without AllowDegraded the same crash
// must fail the run with a PartError naming partition 1 — and still
// return promptly — whether the dead worker has one peer or two.
func TestRankWorkerCrashStrictFails(t *testing.T) {
	ctx, cancel := testCtx(t)
	defer cancel()

	c := fig7Cluster(t)
	images := ClusterImages(c)

	for _, k := range []int{2, 3} {
		opt := crashOptions(false)
		opt.RankWorkers = k
		_, err := RunContext(ctx, images, opt)
		if err == nil {
			t.Fatalf("k=%d: strict run completed despite a dead rank worker", k)
		}
		var pe *core.PartError
		if !errors.As(err, &pe) {
			t.Fatalf("k=%d: error does not attribute a partition: %v", k, err)
		}
		if pe.Part != 1 {
			t.Fatalf("k=%d: error names partition %d, want 1: %v", k, pe.Part, err)
		}
	}
}

// TestRankWorkerCrashInProcessDegraded: the same failure model holds
// behind an in-process scan — the rank stage goes through the exchange
// all the same, and the run degrades with the partition named.
func TestRankWorkerCrashInProcessDegraded(t *testing.T) {
	c := fig7Cluster(t)
	images := ClusterImages(c)

	opt := crashOptions(true)
	opt.UseTCP = false
	baseOpt := DefaultOptions()
	baseOpt.Core.AlwaysRank = true
	base, err := Run(images, baseOpt)
	if err != nil {
		t.Fatal(err)
	}
	mustHaveRanked(t, base.Rank)

	res, err := Run(images, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.RankExec == nil || !strings.Contains(res.RankExec.Fallback, "rank partition 1") {
		t.Fatalf("fallback missing or anonymous: %+v", res.RankExec)
	}
	rankEqualBitwise(t, "in-process degraded", res.Rank, base.Rank)
}

// TestRankDialFaultNamesPartition is the regression test for the
// dropped-dial-error bug: a worker that cannot even reach the exchange
// used to surface as a generic accept/context error with the root cause
// lost. The strict run must now fail with a PartError naming the
// faulted partition and wrapping the dial error itself.
func TestRankDialFaultNamesPartition(t *testing.T) {
	ctx, cancel := testCtx(t)
	defer cancel()

	c := fig7Cluster(t)
	images := ClusterImages(c)

	opt := crashOptions(false)
	opt.RankFaults = map[int]*inject.RankFault{2: {FailDial: true}}

	_, err := RunContext(ctx, images, opt)
	if err == nil {
		t.Fatal("strict run completed despite a worker that never dialed")
	}
	var pe *core.PartError
	if !errors.As(err, &pe) {
		t.Fatalf("dial failure does not attribute a partition: %v", err)
	}
	if pe.Part != 2 {
		t.Fatalf("error names partition %d, want 2: %v", pe.Part, err)
	}
	if !errors.Is(err, inject.ErrRankDialFault) {
		t.Fatalf("root dial cause lost from the error chain: %v", err)
	}
}

// TestRankDialFaultDegraded: the same dial failure with AllowDegraded
// falls back to the single-process kernel, names the partition in the
// manifest, and matches the undisturbed findings.
func TestRankDialFaultDegraded(t *testing.T) {
	ctx, cancel := testCtx(t)
	defer cancel()

	c := fig7Cluster(t)
	if _, err := inject.Inject(c, inject.DanglingObjectID, fig7Target); err != nil {
		t.Fatal(err)
	}
	images := ClusterImages(c)

	base, err := Run(images, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	opt := crashOptions(true)
	opt.RankFaults = map[int]*inject.RankFault{2: {FailDial: true}}
	res, err := RunContext(ctx, images, opt)
	if err != nil {
		t.Fatalf("degraded run failed outright: %v", err)
	}
	man := res.RankExec
	if man == nil || !strings.Contains(man.Fallback, "rank partition 2") {
		t.Fatalf("fallback missing or anonymous: %+v", man)
	}
	rankEqualBitwise(t, "dial-fault degraded", res.Rank, base.Rank)
	if !reflect.DeepEqual(res.Findings, base.Findings) {
		t.Fatal("degraded findings diverge from the undisturbed run")
	}
}

// TestRankWorkersSkipCleanGraph: on a clean cluster a RankWorkers > 1
// check is the K = 1 check — the same skipped rank, the same findings —
// and it never opens the exchange: no rank manifest, no partition or
// superstep events.
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
		if res.RankExec != nil || res.Cluster.Rank != nil {
			t.Fatalf("%s: the exchange ran: %+v", label, res.RankExec)
		}
		for _, e := range res.Journal[0].Events {
			if e.Component == "rank" && e.Kind != "skipped" {
				t.Fatalf("%s: rank event %q on a skipped check", label, e.Kind)
			}
		}
	}
}
