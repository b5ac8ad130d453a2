package main

// End-to-end tests of the one rank worker, over one table of who
// started it: a goroutine of the checker, or an exec'd frrankd binary
// with nothing shared but TCP. Either way a K-way run must be
// bit-identical to the single kernel, a killed worker must surface as a
// PartError naming its partition (degrading cleanly when allowed), and
// a spawned worker's reported memory must be its own.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"faultyrank/internal/checker"
	"faultyrank/internal/core"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/telemetry"
)

// buildFrrankd compiles this package's binary once per test process.
var buildOnce sync.Once
var builtBin string
var buildErr error

func buildFrrankd(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "frrankd-e2e-")
		if err != nil {
			buildErr = err
			return
		}
		builtBin = filepath.Join(dir, "frrankd")
		out, err := exec.Command("go", "build", "-o", builtBin, ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return builtBin
}

// e2eCluster is the checker tests' fig7 tree: 3 dirs × 4 striped files
// over 4 OSTs — small, but every object has rank support.
func e2eCluster(t *testing.T) *lustre.Cluster {
	t.Helper()
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 4, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		dir := fmt.Sprintf("/proj%d", d)
		if err := c.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 4; f++ {
			if _, err := c.Create(fmt.Sprintf("%s/file%d", dir, f), 3*64<<10); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

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

// starters is the table's first axis: who starts the K workers of a
// partitioned check. (The third way — somebody else's exec against
// RankListen — differs from "spawned" only in who calls exec; the
// checker package tests what happens when nobody does.)
var starters = []string{"goroutine", "spawned"}

// partitioned returns the options of a K-way check whose workers are
// started by starter.
func partitioned(t *testing.T, starter string, k int) checker.Options {
	opt := checker.DefaultOptions()
	opt.RankWorkers = k
	opt.OpTimeout = 15 * time.Second
	if starter == "spawned" {
		opt.RankSpawn = buildFrrankd(t)
	}
	return opt
}

// faultyCluster is e2eCluster with one Fig. 7 fault, and its single
// kernel check under opt's kernel constants.
func faultyCluster(t *testing.T, opt checker.Options) (*lustre.Cluster, *checker.Result) {
	t.Helper()
	c := e2eCluster(t)
	if _, err := inject.Inject(c, inject.DanglingObjectID, "/proj1/file2"); err != nil {
		t.Fatal(err)
	}
	opt.RankWorkers, opt.RankSpawn = 0, ""
	base, err := checker.RunCluster(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Findings) == 0 {
		t.Fatal("baseline run found nothing; the equivalence check would be vacuous")
	}
	return c, base
}

// TestFrrankdSpawnEquivalence: a K-way check — whoever started the
// workers — must produce ranks and findings byte-identical to the
// single-kernel run, and the manifest must record who they were, with
// one self-reported peak-RSS sample per spawned process. The kernel
// constants reach a spawned worker over the link: a coordinator running
// non-default ones passes nothing on the worker's command line and still
// gets the single kernel's bits.
func TestFrrankdSpawnEquivalence(t *testing.T) {
	odd := core.DefaultOptions()
	odd.UnpairedWeight, odd.Smoothing, odd.LeakyDistribution = 0.3, 0.25, true
	for name, coreOpt := range map[string]core.Options{"default": core.DefaultOptions(), "odd-constants": odd} {
		ref := checker.DefaultOptions()
		ref.Core = coreOpt
		c, base := faultyCluster(t, ref)
		for _, starter := range starters {
			for _, k := range []int{2, 3} {
				label := fmt.Sprintf("%s/%s/k=%d", name, starter, k)
				opt := partitioned(t, starter, k)
				opt.Core = coreOpt
				res, err := checker.RunCluster(c, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				rankEqualBitwise(t, label, res.Rank, base.Rank)
				if !reflect.DeepEqual(res.Findings, base.Findings) {
					t.Fatalf("%s: findings diverge from single-process run", label)
				}
				man := res.RankExec
				if man == nil || man.Fallback != "" {
					t.Fatalf("%s: no clean rank manifest: %+v", label, man)
				}
				spawned := starter == "spawned"
				if man.Remote != spawned || (len(man.WorkerRSS) == k) != spawned {
					t.Fatalf("%s: manifest does not record who the workers were: %+v", label, man)
				}
			}
		}
	}
}

// TestFrrankdWorkerKill: a worker dying mid-superstep (for a process,
// the injected crash crosses the boundary as -fail-after-ups) must fail
// a strict run with a PartError naming its partition, and degrade an
// AllowDegraded run into the single-kernel fallback with identical
// findings. A goroutine worker that cannot even dial still names its
// partition.
func TestFrrankdWorkerKill(t *testing.T) {
	c, base := faultyCluster(t, checker.DefaultOptions())
	namesPartition := func(label string, err error, part int) {
		t.Helper()
		var pe *core.PartError
		if err == nil {
			t.Fatalf("%s: strict run completed despite a lost worker", label)
		} else if !errors.As(err, &pe) || pe.Part != part {
			t.Fatalf("%s: error does not name partition %d: %v", label, part, err)
		}
	}
	for _, starter := range starters {
		for _, k := range []int{2, 3} {
			label := fmt.Sprintf("%s/k=%d", starter, k)
			opt := partitioned(t, starter, k)
			opt.OpTimeout = 5 * time.Second
			opt.RankFaults = map[int]*inject.RankFault{1: {CrashAfterUps: 1}}

			_, err := checker.RunCluster(c, opt)
			namesPartition(label, err, 1)

			opt.AllowDegraded = true
			res, err := checker.RunCluster(c, opt)
			if err != nil {
				t.Fatalf("%s: degraded run failed outright: %v", label, err)
			}
			man := res.RankExec
			if man == nil || !strings.Contains(man.Fallback, "rank partition 1") {
				t.Fatalf("%s: fallback missing or anonymous: %+v", label, man)
			}
			rankEqualBitwise(t, label+" degraded", res.Rank, base.Rank)
			if !reflect.DeepEqual(res.Findings, base.Findings) {
				t.Fatalf("%s: degraded findings diverge from the undisturbed run", label)
			}
		}
	}

	opt := partitioned(t, "goroutine", 3)
	opt.RankFaults = map[int]*inject.RankFault{2: {FailDial: true}}
	_, err := checker.RunCluster(c, opt)
	namesPartition("goroutine dial fault", err, 2)
	if !errors.Is(err, inject.ErrRankDialFault) {
		t.Fatalf("root dial cause lost from the error chain: %v", err)
	}
}

// TestWorkerRSSIsTheWorkers is the regression test for the inherited
// high-water mark: WorkerRSS used to be wait4's ru_maxrss, and because
// Go execs through clone(CLONE_VM|CLONE_VFORK) Linux starts the child's
// high-water mark at the parent's — so every worker "peaked" at whatever
// the checker had touched. With the checker holding a quarter GiB of
// ballast, a worker ranking a forty-vertex shard must report less.
func TestWorkerRSSIsTheWorkers(t *testing.T) {
	if telemetry.PeakRSS() == 0 {
		t.Skip("no /proc/self/status on this platform: workers report no peak RSS")
	}
	const ballastBytes = 256 << 20
	ballast := make([]byte, ballastBytes)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1
	}
	if telemetry.PeakRSS() < ballastBytes {
		t.Fatalf("ballast not resident: own peak %d", telemetry.PeakRSS())
	}

	res, err := checker.RunCluster(e2eCluster(t), partitioned(t, "spawned", 2))
	if err != nil {
		t.Fatal(err)
	}
	for p, rss := range res.RankExec.WorkerRSS {
		if rss <= 0 || rss >= ballastBytes {
			t.Fatalf("worker %d reports peak RSS %d: not its own (ballast %d)", p, rss, ballastBytes)
		}
	}
	if ballast[4096] != 1 { // keep the ballast live across the run
		t.Fatal("ballast lost")
	}
}
