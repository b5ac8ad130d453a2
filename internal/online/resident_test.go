package online

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"faultyrank/internal/checker"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/workload"
)

// agedCluster is the benchmark's online_delta cluster shape: one MDT and
// eight OSTs in the compact geometry, aged to target MDT inodes.
func agedCluster(tb testing.TB, target int64) *lustre.Cluster {
	tb.Helper()
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 8, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := workload.Age(c, workload.AgeSpec{TargetMDTInodes: target, ChurnFraction: 0.15, Seed: 1}); err != nil {
		tb.Fatal(err)
	}
	return c
}

// deltaScript is online_delta's round: 8 creates of 3-stripe files, then
// 2 unlinks, 1 rename and 1 truncate among the script's own files.
type deltaScript struct {
	c     *lustre.Cluster
	r     *rand.Rand
	live  []string
	round int
}

func newDeltaScript(c *lustre.Cluster, seed int64) *deltaScript {
	return &deltaScript{c: c, r: rand.New(rand.NewSource(seed))}
}

func (d *deltaScript) step(tb testing.TB) {
	tb.Helper()
	d.round++
	dir := fmt.Sprintf("/delta/d%03d", d.round/100)
	if err := d.c.MkdirAll(dir); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("%s/r%05d-%d", dir, d.round, i)
		if _, err := d.c.Create(p, 3*64<<10); err != nil {
			tb.Fatal(err)
		}
		d.live = append(d.live, p)
	}
	for i := 0; i < 2; i++ {
		k := d.r.Intn(len(d.live))
		if err := d.c.Unlink(d.live[k]); err != nil {
			tb.Fatal(err)
		}
		d.live[k] = d.live[len(d.live)-1]
		d.live = d.live[:len(d.live)-1]
	}
	k := d.r.Intn(len(d.live))
	moved := fmt.Sprintf("%s.m%d", d.live[k], d.round)
	if err := d.c.Rename(d.live[k], moved); err != nil {
		tb.Fatal(err)
	}
	d.live[k] = moved
	if err := d.c.Truncate(d.live[d.r.Intn(len(d.live))], int64(1+d.r.Intn(5))*64<<10); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkTrackerRound times one online_delta round — the 12-op delta
// applied outside the timer, then Tracker.Check — on the aged
// 24 000-MDT-inode cluster, warm steady state.
func BenchmarkTrackerRound(b *testing.B) {
	c := agedCluster(b, 24000)
	tr, err := NewTracker(checker.ClusterImages(c), checker.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	d := newDeltaScript(c, 1)
	for range 3 { // the cold first round, then warm-up
		d.step(b)
		if _, err := tr.Check(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	var vertices int
	for b.Loop() {
		b.StopTimer()
		d.step(b)
		b.StartTimer()
		res, err := tr.Check()
		if err != nil {
			b.Fatal(err)
		}
		vertices = res.Unified.N()
	}
	b.ReportMetric(float64(vertices), "vertices/op")
}

// TestTrackerRoundAllocs: a steady-state round writes into the working
// set the previous round used, so what it allocates follows its delta,
// not the graph. An idle round and a 12-op round each allocate the same
// count at 2 000 and at 20 000 MDT inodes, and bytes within 10 % — a few
// tens of KiB, where a round that built its arrays afresh would allocate
// ten times as much at the larger size as at the smaller. One worker
// keeps goroutine start-ups, and so the counts, deterministic; the
// leanest of four rounds of each kind is the steady state (an array that
// net creates have filled regrows now and then, append-style). The
// clusters are clean, so the default rounds skip their rank; the rounds
// are measured again with AlwaysRank, where the warm kernel runs in the
// resident storage.
func TestTrackerRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	for _, always := range []bool{false, true} {
		t.Run(fmt.Sprintf("AlwaysRank=%v", always), func(t *testing.T) { trackerRoundAllocs(t, always) })
	}
}

func trackerRoundAllocs(t *testing.T, always bool) {
	type cost struct{ allocs, bytes uint64 }
	measure := func(size int64) (idle, delta cost) {
		c := agedCluster(t, size)
		opt := checker.DefaultOptions()
		opt.Workers, opt.Core.Workers = 1, 1
		opt.Core.AlwaysRank = always
		tr, err := NewTracker(checker.ClusterImages(c), opt)
		if err != nil {
			t.Fatal(err)
		}
		d := newDeltaScript(c, 1)
		idle, delta = cost{^uint64(0), ^uint64(0)}, cost{^uint64(0), ^uint64(0)}
		// The cold first round, then a warm-up pair that sizes the frontier
		// sets and grows the cold round's exact-size arrays once.
		for round := 0; round < 11; round++ {
			kind := &delta
			if round%2 == 0 {
				d.step(t)
			} else {
				kind = &idle
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := tr.Check()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rank.Skipped == always {
				t.Fatalf("round %d: rank skipped %v with AlwaysRank %v", round, res.Rank.Skipped, always)
			}
			if round >= 3 {
				kind.allocs = min(kind.allocs, after.Mallocs-before.Mallocs)
				kind.bytes = min(kind.bytes, after.TotalAlloc-before.TotalAlloc)
			}
		}
		return idle, delta
	}
	smallIdle, smallDelta := measure(2000)
	largeIdle, largeDelta := measure(20000)
	for _, k := range []struct {
		name         string
		small, large cost
	}{{"idle", smallIdle, largeIdle}, {"12-op", smallDelta, largeDelta}} {
		if k.small.allocs != k.large.allocs {
			t.Errorf("%s round: %d allocations at 2 000 MDT inodes, %d at 20 000", k.name, k.small.allocs, k.large.allocs)
		}
		if lo, hi := min(k.small.bytes, k.large.bytes), max(k.small.bytes, k.large.bytes); hi > lo*11/10 {
			t.Errorf("%s round: %d bytes at 2 000 MDT inodes, %d at 20 000", k.name, k.small.bytes, k.large.bytes)
		}
	}
}

// residentRound is one scripted round of TestResidentRoundsMatchFresh:
// a mutation of the cluster, and what the tracker does besides Check.
type residentRound struct {
	name    string
	mutate  func(t *testing.T, c *lustre.Cluster, live *[]string)
	rescan  bool
	warmCap int // > 0: the round's iteration cap, small enough to force a warm fallback
}

func createFiles(prefix string, n int) func(*testing.T, *lustre.Cluster, *[]string) {
	return func(t *testing.T, c *lustre.Cluster, live *[]string) {
		if err := c.MkdirAll("/" + prefix); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			p := fmt.Sprintf("/%s/f%02d", prefix, i)
			if _, err := c.Create(p, int64(1+i%4)*64<<10); err != nil {
				t.Fatal(err)
			}
			*live = append(*live, p)
		}
	}
}

// unlinkFiles unlinks every keep-th live file but the first: with keep 1,
// all of them.
func unlinkFiles(keep int) func(*testing.T, *lustre.Cluster, *[]string) {
	return func(t *testing.T, c *lustre.Cluster, live *[]string) {
		var kept []string
		for i, p := range *live {
			if i == 0 || i%keep == 0 && keep > 1 {
				kept = append(kept, p)
				continue
			}
			if err := c.Unlink(p); err != nil {
				t.Fatal(err)
			}
		}
		*live = kept
	}
}

// residentScript drives N and E up, down and up again, renames,
// truncates, an idle round, a live fault, a Rescan and a warm fallback.
var residentScript = []residentRound{
	{name: "cold"},
	{name: "creates", mutate: createFiles("a", 1500)}, // past one of the kernel's row blocks
	{name: "unlink-heavy", mutate: unlinkFiles(4)},
	{name: "creates-again", mutate: createFiles("b", 30)},
	{name: "renames", mutate: func(t *testing.T, c *lustre.Cluster, live *[]string) {
		for i := 1; i < len(*live); i += 3 {
			to := (*live)[i] + ".moved"
			if i%2 == 1 {
				to = fmt.Sprintf("/w/moved%02d", i)
			}
			if err := c.Rename((*live)[i], to); err != nil {
				t.Fatal(err)
			}
			(*live)[i] = to
		}
	}},
	{name: "truncates", mutate: func(t *testing.T, c *lustre.Cluster, live *[]string) {
		for i := 0; i < len(*live); i += 2 {
			if err := c.Truncate((*live)[i], int64(i%5)*64<<10); err != nil {
				t.Fatal(err)
			}
		}
	}},
	{name: "idle"},
	{name: "fault", mutate: func(t *testing.T, c *lustre.Cluster, live *[]string) {
		// A scenario that invents no FID, so both twins inject alike.
		if _, err := c.Create("/w/victim", 3*64<<10); err != nil {
			t.Fatal(err)
		}
		if _, err := inject.Inject(c, inject.UnrefLOVEADropped, "/w/victim"); err != nil {
			t.Fatal(err)
		}
	}},
	{name: "warm-fallback", mutate: createFiles("c", 6), warmCap: 2},
	{name: "unlink-all", mutate: unlinkFiles(1)},
	{name: "rescan", mutate: createFiles("d", 8), rescan: true},
	{name: "after-rescan", mutate: unlinkFiles(2)},
	{name: "idle-again"},
}

// TestResidentRoundsMatchFresh: a tracker whose rounds write into the
// working set of the round before returns, round for round, exactly what
// a round with fresh storage returns. The fresh side is a twin tracker on
// an identically scripted twin cluster, restored from its own snapshot
// before every round: a restored tracker holds no working set, so its
// round materialises into new arrays and analyses into a zero
// checker.Result with the warm options the tracker derives. Rank bits,
// iterations, frontier stats, findings, the graph and the tracker's
// snapshot bytes must agree every round, through growth, shrinkage, a
// warm fallback and a Rescan — and a round's findings must survive the
// rounds after it. The script runs twice: with the default options, where
// every round before the fault skips its rank, and with AlwaysRank, where
// every round ranks, so the kernel's storage goes through the growth and
// shrinkage too.
func TestResidentRoundsMatchFresh(t *testing.T) {
	for _, always := range []bool{false, true} {
		t.Run(fmt.Sprintf("AlwaysRank=%v", always), func(t *testing.T) {
			opt := checker.DefaultOptions()
			opt.Core.AlwaysRank = always
			skipped := residentRoundsMatchFresh(t, opt)
			if always && skipped != 0 || !always && skipped == 0 {
				t.Fatalf("%d of %d rounds skipped their rank", skipped, len(residentScript))
			}
		})
	}
}

// residentRoundsMatchFresh runs residentScript under opt and returns how
// many rounds skipped their rank.
func residentRoundsMatchFresh(t *testing.T, opt checker.Options) (skipped int) {
	ca, cb := newCluster(t), newCluster(t)
	resident, fresh := newTracker(t, ca), newTracker(t, cb)
	liveA, liveB := []string{}, []string{}
	for i := 0; i < 10; i++ {
		liveA = append(liveA, fmt.Sprintf("/w/f%02d", i))
	}
	liveB = slices.Clone(liveA)
	var prev *CheckResult
	var prevFindings []checker.Finding
	maxN := 0
	for _, rd := range residentScript {
		if rd.mutate != nil {
			rd.mutate(t, ca, &liveA)
			rd.mutate(t, cb, &liveB)
		}
		ropt := opt
		if rd.warmCap > 0 {
			ropt.Core.MaxIterations = rd.warmCap
		}
		resident.opt = ropt
		var err error
		if fresh, err = RestoreTracker(fresh.EncodeSnapshot(), checker.ClusterImages(cb), ropt); err != nil {
			t.Fatal(err)
		}
		if rd.rescan {
			if err := resident.Rescan(); err != nil {
				t.Fatal(err)
			}
			if err := fresh.Rescan(); err != nil {
				t.Fatal(err)
			}
		}
		fallbacks := resident.Stats().WarmFallbacks
		a, err := resident.Check()
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.Check()
		if err != nil {
			t.Fatal(err)
		}
		assertSameRound(t, rd.name, a, b)
		if a.Rank.Skipped {
			skipped++
		}
		if got, want := resident.EncodeSnapshot(), fresh.EncodeSnapshot(); !bytes.Equal(got, want) {
			t.Fatalf("%s: tracker snapshots differ (%d vs %d bytes)", rd.name, len(got), len(want))
		}
		if rd.warmCap > 0 && resident.Stats().WarmFallbacks == fallbacks {
			t.Fatalf("%s: a warm cap of %d forced no fallback", rd.name, rd.warmCap)
		}
		if prev != nil {
			// The round wrote into the previous round's working set...
			if a.Graph != prev.Graph || a.Rank != prev.Rank {
				t.Fatalf("%s: the round did not reuse the previous round's graph and rank storage", rd.name)
			}
			// ...but left the previous round's own results alone.
			if !reflect.DeepEqual(prev.Findings, prevFindings) {
				t.Fatalf("%s: the round rewrote the previous round's findings", rd.name)
			}
		}
		prev, prevFindings = a, deepCopyFindings(a.Findings)
		maxN = max(maxN, a.Unified.N())
	}
	if len(prevFindings) == 0 {
		t.Fatal("test vector: the live fault left no finding to compare")
	}
	if maxN <= 4096 {
		t.Fatalf("test vector: %d vertices at most, not past one of the kernel's row blocks", maxN)
	}
	return skipped
}

func deepCopyFindings(fs []checker.Finding) []checker.Finding {
	out := slices.Clone(fs)
	for i := range out {
		out[i].Repairs = slices.Clone(out[i].Repairs)
	}
	return out
}

// assertSameRound compares a resident round with its fresh twin.
func assertSameRound(t *testing.T, name string, a, b *CheckResult) {
	t.Helper()
	if a.Warm != b.Warm || a.InodesRefreshed != b.InodesRefreshed || a.Round != b.Round {
		t.Fatalf("%s: warm %v/%v, refreshed %d/%d, round %d/%d", name, a.Warm, b.Warm, a.InodesRefreshed, b.InodesRefreshed, a.Round, b.Round)
	}
	ua, ub := a.Unified, b.Unified
	if !reflect.DeepEqual(ua.FIDs, ub.FIDs) || !reflect.DeepEqual(ua.Edges, ub.Edges) ||
		!reflect.DeepEqual(ua.Present, ub.Present) || !reflect.DeepEqual(ua.Types, ub.Types) ||
		!reflect.DeepEqual(ua.Claims, ub.Claims) || !reflect.DeepEqual(ua.Issues, ub.Issues) {
		t.Fatalf("%s: unified graphs differ", name)
	}
	ga, gb := a.Graph, b.Graph
	if !reflect.DeepEqual(ga.Fwd, gb.Fwd) || !reflect.DeepEqual(ga.Rev, gb.Rev) ||
		!slices.Equal(ga.FwdPaired, gb.FwdPaired) || !slices.Equal(ga.RevPaired, gb.RevPaired) ||
		!slices.Equal(ga.PairedIn, gb.PairedIn) || !slices.Equal(ga.UnpairedIn, gb.UnpairedIn) {
		t.Fatalf("%s: CSR builds differ", name)
	}
	ra, rb := a.Rank, b.Rank
	if ra.Iterations != rb.Iterations || ra.Converged != rb.Converged || ra.Skipped != rb.Skipped {
		t.Fatalf("%s: %d iterations (converged %v, skipped %v) resident, %d (%v, %v) fresh",
			name, ra.Iterations, ra.Converged, ra.Skipped, rb.Iterations, rb.Converged, rb.Skipped)
	}
	if !reflect.DeepEqual(ra.Frontier, rb.Frontier) {
		t.Fatalf("%s: frontier stats %+v resident, %+v fresh", name, ra.Frontier, rb.Frontier)
	}
	for _, v := range [][2][]float64{{ra.IDRank, rb.IDRank}, {ra.PropRank, rb.PropRank}, {ra.Diffs, rb.Diffs}} {
		if !sameBits(v[0], v[1]) {
			t.Fatalf("%s: rank vectors differ in their bits", name)
		}
	}
	if !reflect.DeepEqual(a.Report, b.Report) || a.Stats != b.Stats {
		t.Fatalf("%s: detection differs", name)
	}
	if !reflect.DeepEqual(a.Findings, b.Findings) {
		t.Fatalf("%s: findings differ:\n resident %v\n fresh    %v", name, a.Findings, b.Findings)
	}
}

func sameBits(x, y []float64) bool {
	return slices.EqualFunc(x, y, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
}
