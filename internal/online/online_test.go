package online

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"faultyrank/internal/agg"
	"faultyrank/internal/checker"
	"faultyrank/internal/core"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/repair"
	"faultyrank/internal/scanner"
)

func newCluster(t testing.TB) *lustre.Cluster {
	t.Helper()
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 4, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.MkdirAll("/w")
	for i := 0; i < 10; i++ {
		if _, err := c.Create(fmt.Sprintf("/w/f%02d", i), 2*64<<10); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func newTracker(t testing.TB, c *lustre.Cluster) *Tracker {
	t.Helper()
	tr, err := NewTracker(checker.ClusterImages(c), checker.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// rankingOptions are the default options with core.Options.AlwaysRank:
// a test of the warm-start machinery on a clean cluster, which would
// otherwise skip every rank.
func rankingOptions() checker.Options {
	opt := checker.DefaultOptions()
	opt.Core.AlwaysRank = true
	return opt
}

// mustHaveRanked fails a test whose AlwaysRank round did not iterate.
func mustHaveRanked(t testing.TB, res *CheckResult) {
	t.Helper()
	if res.Rank.Skipped || res.Rank.Iterations == 0 {
		t.Fatalf("round %d did not iterate: skipped=%v iterations=%d", res.Round, res.Rank.Skipped, res.Rank.Iterations)
	}
}

// partialsEqual compares tracker-maintained partials with fresh full
// scans, ignoring ordering differences within a server by comparing
// sorted content.
func assertSnapshotMatchesFullScan(t *testing.T, tr *Tracker, c *lustre.Cluster) {
	t.Helper()
	maintained := tr.Partials()
	for i, img := range checker.ClusterImages(c) {
		full, err := scanner.ScanImage(img, 0)
		if err != nil {
			t.Fatal(err)
		}
		m := maintained[i]
		if m.ServerLabel != full.ServerLabel {
			t.Fatalf("label mismatch: %q vs %q", m.ServerLabel, full.ServerLabel)
		}
		if !reflect.DeepEqual(m.Objects, full.Objects) {
			t.Fatalf("%s: objects diverge:\n maintained %v\n full %v",
				m.ServerLabel, m.Objects, full.Objects)
		}
		if !reflect.DeepEqual(m.Edges, full.Edges) {
			t.Fatalf("%s: edges diverge (%d vs %d)",
				m.ServerLabel, m.Edges.Len(), full.Edges.Len())
		}
		if m.Stats != full.Stats {
			t.Fatalf("%s: stats diverge: %+v vs %+v", m.ServerLabel, m.Stats, full.Stats)
		}
	}
}

func TestInitialSnapshotMatchesFullScan(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	assertSnapshotMatchesFullScan(t, tr, c)
}

// TestIncrementalEquivalenceProperty: after arbitrary mutation batches,
// Update() brings the maintained snapshot into exact agreement with a
// full offline rescan — the core online-mode invariant.
func TestIncrementalEquivalenceProperty(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		c := newCluster(t)
		tr := newTracker(t, c)
		r := rand.New(rand.NewSource(seed))
		live := []string{}
		for i := 0; i < 10; i++ {
			live = append(live, fmt.Sprintf("/w/f%02d", i))
		}
		for batch := 0; batch < 6; batch++ {
			nOps := 1 + r.Intn(8)
			for op := 0; op < nOps; op++ {
				switch r.Intn(4) {
				case 0: // create
					p := fmt.Sprintf("/w/n%d-%d-%d", seed, batch, op)
					if _, err := c.Create(p, int64(r.Intn(4*64<<10))); err == nil {
						live = append(live, p)
					}
				case 1: // delete
					if len(live) > 1 {
						i := r.Intn(len(live))
						if err := c.Unlink(live[i]); err == nil {
							live = append(live[:i], live[i+1:]...)
						}
					}
				case 2: // new directory + file
					d := fmt.Sprintf("/d%d-%d-%d", seed, batch, op)
					if err := c.MkdirAll(d); err == nil {
						p := d + "/x"
						if _, err := c.Create(p, 100); err == nil {
							live = append(live, p)
						}
					}
				case 3: // hard link
					if len(live) > 0 {
						src := live[r.Intn(len(live))]
						dst := fmt.Sprintf("/w/l%d-%d-%d", seed, batch, op)
						if err := c.Link(src, dst); err == nil {
							// note: Unlink of a hardlinked file frees the
							// inode; keep links out of the delete pool.
							_ = dst
						}
					}
				}
			}
			if _, err := tr.Update(); err != nil {
				t.Fatal(err)
			}
			assertSnapshotMatchesFullScan(t, tr, c)
		}
	}
}

func TestUpdateCountsRefreshedInodes(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	n, err := tr.Update()
	if err != nil || n != 0 {
		t.Fatalf("idle update refreshed %d (%v)", n, err)
	}
	if _, err := c.Create("/w/new", 64<<10); err != nil {
		t.Fatal(err)
	}
	n, err = tr.Update()
	if err != nil {
		t.Fatal(err)
	}
	// new MDT inode + parent dir + one OST object
	if n < 3 {
		t.Errorf("refreshed %d inodes, want >= 3", n)
	}
	// Only the non-empty round is an update; the idle round before it
	// refreshed nothing and must not count.
	st := tr.Stats()
	if st.UpdateRounds != 1 || st.InodesRescanned != int64(n) {
		t.Errorf("stats: %d %d, want 1 %d", st.UpdateRounds, st.InodesRescanned, n)
	}
}

// TestUntrackedDeleteAndNoOpAccounting: a create-then-delete between
// updates leaves freed inodes in the feed that the tracker never saw
// alive — refreshing them is a no-op and must not count, while the
// surviving dirty inodes (the parent directory) still do.
func TestUntrackedDeleteAndNoOpAccounting(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	if n, err := tr.Update(); err != nil || n != 0 {
		t.Fatalf("idle update: %d, %v", n, err)
	}
	if st := tr.Stats(); st.UpdateRounds != 0 {
		t.Fatalf("idle round counted as an update: %d", st.UpdateRounds)
	}
	if _, err := c.Create("/w/ephemeral", 64<<10); err != nil {
		t.Fatal(err)
	}
	if err := c.Unlink("/w/ephemeral"); err != nil {
		t.Fatal(err)
	}
	// Expected refresh count: dirty inodes that are still allocated or
	// were tracked before the round (computed before Update consumes
	// the feeds).
	expected, freedUntracked := 0, 0
	for si, st := range tr.servers {
		for _, ino := range st.img.DirtyInodes() {
			tracked := tr.delta.Tracked(si, ino)
			if st.img.InodeAllocated(ino) || tracked {
				expected++
			} else {
				freedUntracked++
			}
		}
	}
	if freedUntracked == 0 {
		t.Fatal("test vector: no freed-untracked inode in the feed")
	}
	n, err := tr.Update()
	if err != nil {
		t.Fatal(err)
	}
	if n != expected {
		t.Fatalf("refreshed %d, want %d (untracked deletes must not count)", n, expected)
	}
	if st := tr.Stats(); st.UpdateRounds != 1 || st.InodesRescanned != int64(expected) {
		t.Fatalf("stats: %d %d, want 1 %d", st.UpdateRounds, st.InodesRescanned, expected)
	}
	assertSnapshotMatchesFullScan(t, tr, c)
}

// TestUpdateScanErrorAllOrNothing: a mid-feed scan error must leave the
// failing server's state and dirty feed untouched (so the next update
// retries the same work), while servers committed earlier in the round
// keep their refresh and the stats count exactly the committed work.
func TestUpdateScanErrorAllOrNothing(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	if _, err := c.Create("/w/err-probe", 64<<10); err != nil {
		t.Fatal(err)
	}
	// Fail one allocated dirty inode on an OST, so the MDT (walked
	// first) commits before the failure.
	var failImg *ldiskfs.Image
	var failIno ldiskfs.Ino
	var ostDirty int
	for _, st := range tr.servers[1:] {
		for _, ino := range st.img.DirtyInodes() {
			if st.img.InodeAllocated(ino) {
				failImg, failIno = st.img, ino
				ostDirty = len(st.img.DirtyInodes())
				break
			}
		}
		if failImg != nil {
			break
		}
	}
	if failImg == nil {
		t.Fatal("test vector: no allocated dirty inode on any OST")
	}
	boom := errors.New("injected scan failure")
	tr.parse = func(p *scanner.Partial, img *ldiskfs.Image, ino ldiskfs.Ino) error {
		if img == failImg && ino == failIno {
			return boom
		}
		return scanner.AppendInode(p, img, ino)
	}
	n, err := tr.Update()
	if !errors.Is(err, boom) {
		t.Fatalf("want injected error, got %v", err)
	}
	// The MDT committed (its feed is drained, its work counted)...
	if got := len(tr.servers[0].img.DirtyInodes()); got != 0 {
		t.Fatalf("MDT feed not drained by committed round: %d dirty", got)
	}
	if n == 0 {
		t.Fatal("MDT commit not reflected in the refresh count")
	}
	// ...while the failing OST's feed is fully intact.
	if got := len(failImg.DirtyInodes()); got != ostDirty {
		t.Fatalf("failing server's feed consumed: %d dirty, want %d", got, ostDirty)
	}
	if st := tr.Stats(); st.UpdateRounds != 1 || st.InodesRescanned != int64(n) {
		t.Fatalf("stats after failed round: %d %d, want 1 %d", st.UpdateRounds, st.InodesRescanned, n)
	}
	// Heal the seam: the retry consumes the same feed and converges to
	// the full-scan snapshot.
	tr.parse = scanner.AppendInode
	n2, err := tr.Update()
	if err != nil {
		t.Fatal(err)
	}
	if n2 == 0 {
		t.Fatal("retry refreshed nothing; feed was lost")
	}
	assertSnapshotMatchesFullScan(t, tr, c)
}

// TestOnlineCheckFindsLiveFault: metadata corruption applied through
// the EA API lands in the change feed and is caught by the next online
// check without any full rescan.
func TestOnlineCheckFindsLiveFault(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	res0, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(res0.Findings) != 0 {
		t.Fatalf("clean cluster has findings: %v", res0.Findings)
	}
	inj, err := inject.Inject(c, inject.MismatchFilterFID, "/w/f04")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	if res.InodesRefreshed == 0 {
		t.Fatal("change feed empty after injection")
	}
	if !res.HasFinding(checker.FaultyProperty, inj.VictimFID) {
		t.Fatalf("online check missed the fault: %+v", res.Findings)
	}
}

// TestSilentCorruptionNeedsRescan: byte-level corruption bypasses the
// change feed (Update sees nothing); Rescan picks it up.
func TestSilentCorruptionNeedsRescan(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	// Silent corruption: stomp a file's inline EA area directly.
	ent, err := c.Stat("/w/f07")
	if err != nil {
		t.Fatal(err)
	}
	off, err := c.MDT.Img.InodeOffset(ent.Ino)
	if err != nil {
		t.Fatal(err)
	}
	// EA area begins after the 128-byte header; flip bytes there.
	if err := c.MDT.Img.CorruptBytes(off+128, []byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	res, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		t.Fatalf("silent corruption visible without rescan: %v", res.Findings)
	}
	if err := tr.Rescan(); err != nil {
		t.Fatal(err)
	}
	res2, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Findings) == 0 {
		t.Fatal("rescan did not surface the corruption")
	}
}

// TestOnlineIsCheaperThanOffline: after a small change batch, the
// online update re-parses far fewer inodes than a full scan would.
func TestOnlineIsCheaperThanOffline(t *testing.T) {
	c := newCluster(t)
	for i := 0; i < 200; i++ {
		if _, err := c.Create(fmt.Sprintf("/w/bulk%03d", i), 64<<10); err != nil {
			t.Fatal(err)
		}
	}
	tr := newTracker(t, c)
	if _, err := c.Create("/w/one-more", 64<<10); err != nil {
		t.Fatal(err)
	}
	res, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	total := c.TotalInodes()
	if int64(res.InodesRefreshed)*10 > total {
		t.Fatalf("online update refreshed %d of %d inodes — not incremental",
			res.InodesRefreshed, total)
	}
}

// TestRepairsFlowThroughChangeFeed: repairs applied by the repair
// engine mutate images through the metadata API, so the online tracker
// sees them: after inject -> online-detect -> repair, the next online
// check is clean without any rescans.
func TestRepairsFlowThroughChangeFeed(t *testing.T) {
	c := newCluster(t)
	images := checker.ClusterImages(c)
	tr, err := NewTracker(images, checker.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inject.Inject(c, inject.UnrefLOVEADropped, "/w/f02"); err != nil {
		t.Fatal(err)
	}
	res, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("fault not detected online")
	}
	eng := repair.NewEngine(images, res.Result)
	sum := eng.Apply(res.Findings)
	if sum.Applied == 0 {
		t.Fatalf("nothing applied: %v", sum.Log)
	}
	after, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	if after.InodesRefreshed == 0 {
		t.Fatal("repairs did not reach the change feed")
	}
	if len(after.Findings) != 0 || after.Stats.UnpairedEdges != 0 {
		t.Fatalf("online view still inconsistent after repair: %d findings", len(after.Findings))
	}
	assertSnapshotMatchesFullScan(t, tr, c)
}

func TestNewTrackerValidation(t *testing.T) {
	if _, err := NewTracker(nil, checker.DefaultOptions()); err == nil {
		t.Fatal("empty tracker accepted")
	}
}

// TestTrackerResolvesUnsetCore: NewTracker and RestoreTracker keep a
// caller's Core as given and fill in an unset one with the paper's
// defaults; the options beside Core survive either way.
func TestTrackerResolvesUnsetCore(t *testing.T) {
	images := checker.ClusterImages(newCluster(t))
	custom := checker.DefaultOptions()
	custom.Core.Epsilon = 0.01
	custom.SplitProperties = true
	unset := checker.Options{SplitProperties: true}
	for _, tc := range []struct {
		name string
		opt  checker.Options
		want core.Options
	}{
		{"custom", custom, custom.Core},
		{"unset", unset, core.DefaultOptions()},
	} {
		tr, err := NewTracker(images, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreTracker(tr.EncodeSnapshot(), images, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		for ctor, got := range map[string]*Tracker{"NewTracker": tr, "RestoreTracker": restored} {
			if !reflect.DeepEqual(got.opt.Core, tc.want) {
				t.Errorf("%s %s: Core = %+v, want %+v", tc.name, ctor, got.opt.Core, tc.want)
			}
			if !got.opt.SplitProperties {
				t.Errorf("%s %s: SplitProperties dropped", tc.name, ctor)
			}
		}
	}
}

// coldAnalyze runs the full offline pipeline on fresh scans of the
// current images — the executable specification an online check must
// match finding-for-finding.
func coldAnalyze(t *testing.T, c *lustre.Cluster) *checker.Result {
	t.Helper()
	images := checker.ClusterImages(c)
	parts := make([]*scanner.Partial, len(images))
	for i, img := range images {
		p, err := scanner.ScanImage(img, 0)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = p
	}
	res := &checker.Result{}
	if err := checker.AnalyzeUnified(res, images, agg.MergeWorkers(parts, 0), checker.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	return res
}

func fidLess(a, b lustre.FID) bool {
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	if a.Oid != b.Oid {
		return a.Oid < b.Oid
	}
	return a.Ver < b.Ver
}

func sortedFindings(fs []checker.Finding) []checker.Finding {
	out := append([]checker.Finding(nil), fs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.FID != b.FID {
			return fidLess(a.FID, b.FID)
		}
		if a.Field != b.Field {
			return a.Field < b.Field
		}
		return a.Detail < b.Detail
	})
	return out
}

// assertFindingsMatch compares an online result against a cold offline
// run in FID space: same findings (kind, FID, field, detail, repair
// plan) and the same graph size and stats. GID numbering is allowed to
// differ — everything downstream of the merge is FID-space.
//
// exactScores additionally requires scores equal to float round-off,
// which holds for cold-started online checks (identical trajectory up
// to summation order). Warm-started checks converge under the paper's
// loose ε=0.1 stopping rule, so their resting ranks may sit a few
// tenths from the cold trajectory's resting point while classifying
// identically — for those, finding identity is the invariant.
func assertFindingsMatch(t *testing.T, online, cold *checker.Result, exactScores bool) {
	t.Helper()
	if online.Unified.N() != cold.Unified.N() {
		t.Fatalf("vertex count: online %d, cold %d", online.Unified.N(), cold.Unified.N())
	}
	if !reflect.DeepEqual(online.Stats, cold.Stats) {
		t.Fatalf("graph stats diverge:\n online %+v\n cold   %+v", online.Stats, cold.Stats)
	}
	of, cf := sortedFindings(online.Findings), sortedFindings(cold.Findings)
	if len(of) != len(cf) {
		t.Fatalf("finding count: online %d, cold %d\n online %v\n cold   %v",
			len(of), len(cf), of, cf)
	}
	for i := range of {
		a, b := of[i], cf[i]
		if a.Kind != b.Kind || a.FID != b.FID || a.Field != b.Field || a.Detail != b.Detail {
			t.Fatalf("finding %d diverges:\n online %+v\n cold   %+v", i, a, b)
		}
		if !reflect.DeepEqual(a.Repairs, b.Repairs) {
			t.Fatalf("finding %d repair plan diverges:\n online %v\n cold   %v", i, a.Repairs, b.Repairs)
		}
		if exactScores && math.Abs(a.Score-b.Score) > 1e-9 {
			t.Fatalf("finding %d score: online %g, cold %g", i, a.Score, b.Score)
		}
	}
}

// TestOnlineCheckMatchesColdAnalyze is the acceptance property: after
// arbitrary mutation batches — deletes, re-creates of just-freed paths
// (inode-number reuse), live fault injection — the incremental snapshot
// plus warm-started ranking produce exactly the findings of a cold
// merge and checker.AnalyzeUnified over fresh full scans.
//
// It runs twice: with the default options, where a round whose relations
// are all paired skips its rank, and with core.Options.AlwaysRank, where
// every round ranks and every round after a converged one runs warm — so
// the warm-started half of the property is exercised on every seed, not
// only after a random fault injection.
func TestOnlineCheckMatchesColdAnalyze(t *testing.T) {
	for _, always := range []bool{false, true} {
		t.Run(fmt.Sprintf("AlwaysRank=%v", always), func(t *testing.T) { onlineMatchesCold(t, always) })
	}
}

func onlineMatchesCold(t *testing.T, always bool) {
	opt := checker.DefaultOptions()
	opt.Core.AlwaysRank = always
	warmRounds := 0
	for seed := int64(0); seed < 4; seed++ {
		c := newCluster(t)
		tr, err := NewTracker(checker.ClusterImages(c), opt)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(seed + 100))
		live := []string{}
		for i := 0; i < 10; i++ {
			live = append(live, fmt.Sprintf("/w/f%02d", i))
		}
		prevConverged := false
		for round := 0; round < 4; round++ {
			for op := 0; op < 1+r.Intn(6); op++ {
				switch r.Intn(4) {
				case 0:
					p := fmt.Sprintf("/w/m%d-%d-%d", seed, round, op)
					if _, err := c.Create(p, int64(r.Intn(3*64<<10))); err == nil {
						live = append(live, p)
					}
				case 1:
					if len(live) > 1 {
						i := r.Intn(len(live))
						if err := c.Unlink(live[i]); err == nil {
							live = append(live[:i], live[i+1:]...)
						}
					}
				case 2:
					// Delete then immediately recreate the same path:
					// the freed inode numbers are typically reused, the
					// delete-then-recreate case the delta merge must
					// tombstone correctly.
					if len(live) > 1 {
						i := r.Intn(len(live))
						p := live[i]
						if err := c.Unlink(p); err == nil {
							if _, err := c.Create(p, 64<<10); err != nil {
								live = append(live[:i], live[i+1:]...)
							}
						}
					}
				case 3:
					if len(live) > 0 && r.Intn(2) == 0 {
						// Live fault, visible through the change feed.
						_, _ = inject.Inject(c, inject.MismatchFilterFID, live[r.Intn(len(live))])
					}
				}
			}
			res, err := tr.Check()
			if err != nil {
				t.Fatal(err)
			}
			if res.Round != int64(round+1) {
				t.Fatalf("round %d: got Round %d", round, res.Round)
			}
			// A round ranks exactly when a relation is unpaired (or always,
			// with AlwaysRank), and runs warm exactly when it ranks after a
			// round that ranked and converged.
			if res.Rank.Skipped != (!always && res.Stats.UnpairedEdges == 0) {
				t.Fatalf("round %d: skipped = %v with %d unpaired edges", round, res.Rank.Skipped, res.Stats.UnpairedEdges)
			}
			if res.Warm != (prevConverged && !res.Rank.Skipped) {
				t.Fatalf("round %d: Warm = %v (previous round ranked and converged %v, skipped %v)", round, res.Warm, prevConverged, res.Rank.Skipped)
			}
			prevConverged = res.Rank.Converged && !res.Rank.Skipped
			if res.Warm {
				warmRounds++
			}
			assertFindingsMatch(t, res.Result, coldAnalyze(t, c), !res.Warm)
		}
	}
	if always && warmRounds == 0 {
		t.Fatal("no round ran warm: the warm-started half of the property went untested")
	}
}

// TestRescanMatchesColdAfterSilentCorruption: byte-stomped metadata is
// invisible to the feed; after Rescan the online result must again
// match a cold run exactly (and start cold — trust in old ranks is
// revoked with the snapshot).
func TestRescanMatchesColdAfterSilentCorruption(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	if _, err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	ent, err := c.Stat("/w/f03")
	if err != nil {
		t.Fatal(err)
	}
	off, err := c.MDT.Img.InodeOffset(ent.Ino)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MDT.Img.CorruptBytes(off+128, []byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Rescan(); err != nil {
		t.Fatal(err)
	}
	res, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	if res.Warm {
		t.Fatal("check after Rescan claimed a warm start")
	}
	if len(res.Findings) == 0 {
		t.Fatal("rescan did not surface the corruption")
	}
	assertFindingsMatch(t, res.Result, coldAnalyze(t, c), true)
}

// TestWarmStartCutsIterations: a re-check of an unchanged snapshot is
// seeded with the previous fixed point and must converge in no more
// iterations than the cold first check.
func TestWarmStartCutsIterations(t *testing.T) {
	c := newCluster(t)
	tr, err := NewTracker(checker.ClusterImages(c), rankingOptions())
	if err != nil {
		t.Fatal(err)
	}
	first, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	mustHaveRanked(t, first)
	// The next round rewrites first.Rank: keep the count it needs.
	coldIters := first.Rank.Iterations
	second, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	mustHaveRanked(t, second)
	if first.Warm || !second.Warm {
		t.Fatalf("warm flags: first %v, second %v", first.Warm, second.Warm)
	}
	if second.Rank.Iterations > coldIters {
		t.Fatalf("warm re-check took %d iterations, cold took %d",
			second.Rank.Iterations, coldIters)
	}
	if second.InodesRefreshed != 0 {
		t.Fatalf("unchanged snapshot refreshed %d inodes", second.InodesRefreshed)
	}
}

// TestClusterSectionCarriesRefreshCounts: online results expose the
// per-server telemetry sections, with the refresh work attributed to
// the servers that did it.
func TestClusterSectionCarriesRefreshCounts(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	if _, err := c.Create("/w/counted", 64<<10); err != nil {
		t.Fatal(err)
	}
	res, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases == nil {
		t.Fatal("online result has no phase tree")
	}
	if len(res.Metrics.Counters) == 0 {
		t.Fatal("online result has no metrics snapshot")
	}
	if res.Cluster == nil {
		t.Fatal("online result has no cluster manifest")
	}
	if len(res.PerServer) == 0 {
		t.Fatal("round refreshed nothing")
	}
	var total int64
	for _, rr := range res.PerServer {
		sec := res.Cluster.Server(rr.Server)
		if sec == nil {
			t.Fatalf("no cluster section for %s", rr.Server)
		}
		if sec.InodesScanned < int64(rr.Refreshed) {
			t.Fatalf("%s: section counts %d scanned, round refreshed %d",
				rr.Server, sec.InodesScanned, rr.Refreshed)
		}
		total += sec.InodesScanned
	}
	if total < int64(res.InodesRefreshed) {
		t.Fatalf("sections count %d, round refreshed %d", total, res.InodesRefreshed)
	}
}

// TestWatchLoopWithLiveMutator drives Watch concurrently with a mutator
// that shares the quiesce lock — the arrangement the -race CI run
// checks for unsynchronised image access.
func TestWatchLoopWithLiveMutator(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			p := fmt.Sprintf("/w/live%04d", i)
			_, _ = c.Create(p, 64<<10)
			if i%3 == 2 {
				_ = c.Unlink(fmt.Sprintf("/w/live%04d", i-1))
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
		}
	}()
	var rounds []int
	err := tr.Watch(context.Background(), WatchOptions{
		Interval: 5 * time.Millisecond,
		Rounds:   5,
		Quiesce:  &mu,
		OnRound: func(round int, res *CheckResult) {
			rounds = append(rounds, round)
		},
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rounds, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("rounds observed: %v", rounds)
	}
	// The mutator kept creating files after round 5's update; with it
	// stopped, one more update folds that tail in before the comparison.
	if _, err := tr.Update(); err != nil {
		t.Fatal(err)
	}
	assertSnapshotMatchesFullScan(t, tr, c)
}

// TestUpdateLostDirtyRegression: an inode dirtied by a concurrent
// mutator *during* an update round — after the round snapshotted the
// dirty feeds but before it committed — must survive into the next
// round's feed. The tracker used to ClearDirty on commit, wiping the
// whole map and silently losing exactly those mid-round changes; commit
// now acknowledges only the snapshot it consumed (Image.ConsumeDirty).
// The mutator runs on its own goroutine with a channel handshake, so
// the -race run also proves the interleaving is synchronised.
func TestUpdateLostDirtyRegression(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	if _, err := c.Create("/w/seen", 64<<10); err != nil {
		t.Fatal(err)
	}

	scanStarted := make(chan struct{})
	mutated := make(chan struct{})
	var once sync.Once
	tr.parse = func(p *scanner.Partial, img *ldiskfs.Image, ino ldiskfs.Ino) error {
		// Park the round mid-flight — between its DirtyInodes snapshot
		// and its commit — while the mutator runs.
		once.Do(func() {
			close(scanStarted)
			<-mutated
		})
		return scanner.AppendInode(p, img, ino)
	}
	go func() {
		defer close(mutated)
		<-scanStarted
		if _, err := c.Create("/w/late", 64<<10); err != nil {
			t.Error(err)
		}
	}()
	if _, err := tr.Update(); err != nil {
		t.Fatal(err)
	}
	tr.parse = scanner.AppendInode

	dirty := 0
	for _, st := range tr.servers {
		dirty += len(st.img.DirtyInodes())
	}
	if dirty == 0 {
		t.Fatal("mid-round mutation vanished from the change feeds (lost update)")
	}
	if n, err := tr.Update(); err != nil || n == 0 {
		t.Fatalf("follow-up round refreshed %d (%v)", n, err)
	}
	assertSnapshotMatchesFullScan(t, tr, c)
}

// TestUnconvergedCheckDoesNotSaveWarmState: a check whose ranking hits
// the iteration cap without converging must not become the next check's
// warm seed — persisting the truncated trajectory used to poison every
// later warm start.
func TestUnconvergedCheckDoesNotSaveWarmState(t *testing.T) {
	c := newCluster(t)
	opt := rankingOptions()
	opt.Core.MaxIterations = 1
	tr, err := NewTracker(checker.ClusterImages(c), opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	mustHaveRanked(t, res)
	if res.Rank.Converged {
		t.Fatal("test vector: one iteration converged; the cap is not binding")
	}
	if tr.haveWarm {
		t.Fatal("unconverged check saved warm-start state")
	}
	if tr.lastIters != 0 {
		t.Fatalf("unconverged check set lastIters = %d", tr.lastIters)
	}

	// Lift the cap: the next check still starts cold (there is no warm
	// state to use), converges, and only then persists its fixed point.
	tr.opt.Core = rankingOptions().Core
	res2, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	mustHaveRanked(t, res2)
	if res2.Warm {
		t.Fatal("check after an unconverged round claimed a warm start")
	}
	if !res2.Rank.Converged || !tr.haveWarm || tr.lastIters != res2.Rank.Iterations {
		t.Fatalf("converged check did not persist warm state: converged=%v haveWarm=%v lastIters=%d",
			res2.Rank.Converged, tr.haveWarm, tr.lastIters)
	}
}

// TestWatchFirstRoundImmediate: round 1 runs as soon as Watch is
// entered; the watcher must not sit out a full interval (here: an hour)
// before its first look at the images.
func TestWatchFirstRoundImmediate(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	if _, err := c.Create("/w/pre-existing-change", 64<<10); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first *CheckResult
	err := tr.Watch(ctx, WatchOptions{
		Interval: time.Hour,
		Rounds:   1,
		OnRound:  func(round int, res *CheckResult) { first = res },
	})
	if err != nil {
		t.Fatalf("first watch round did not run immediately: %v", err)
	}
	if first == nil || first.InodesRefreshed == 0 {
		t.Fatalf("immediate round missed the pending change: %+v", first)
	}
}

func TestWatchContextCancel(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tr.Watch(ctx, WatchOptions{Interval: time.Hour}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// trackingLock records Lock/Unlock pairing — the quiesce contract: the
// watch takes the lock exactly once per round and never leaks a hold.
type trackingLock struct {
	mu     sync.Mutex
	locks  int
	held   bool
	leaked bool
}

func (l *trackingLock) Lock() {
	l.mu.Lock()
	if l.held {
		l.leaked = true
	}
	l.held = true
	l.locks++
}

func (l *trackingLock) Unlock() {
	if !l.held {
		l.leaked = true
	}
	l.held = false
	l.mu.Unlock()
}

// TestWatchQuiesceOncePerRound: each round holds the quiesce lock for
// exactly one balanced Lock/Unlock, and the lock is free again while
// OnRound observers run.
func TestWatchQuiesceOncePerRound(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	lock := &trackingLock{}
	err := tr.Watch(context.Background(), WatchOptions{
		Interval: time.Millisecond,
		Rounds:   3,
		Quiesce:  lock,
		OnRound: func(round int, res *CheckResult) {
			if lock.held {
				t.Errorf("round %d: quiesce still held in OnRound", round)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lock.locks != 3 || lock.held || lock.leaked {
		t.Fatalf("quiesce lock: %d holds, held=%v leaked=%v", lock.locks, lock.held, lock.leaked)
	}
}

// TestWatchGateBracketsEveryRound: the pool gate is acquired before and
// released after each round — including failed rounds — and never held
// across the inter-round sleep.
func TestWatchGateBracketsEveryRound(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	tr.InjectScanFault(&inject.ScanFault{FailEvery: 1, MaxFailures: 1})
	if _, err := c.Create("/w/gated", 64<<10); err != nil {
		t.Fatal(err)
	}
	var acquires, releases int
	var failed []int
	err := tr.Watch(context.Background(), WatchOptions{
		Interval: time.Millisecond,
		Rounds:   3,
		Gate: func(ctx context.Context) (func(), error) {
			acquires++
			return func() { releases++ }, nil
		},
		OnError: func(round int, err error) error {
			failed = append(failed, round)
			if !errors.Is(err, inject.ErrScanInjected) {
				t.Errorf("round %d: unexpected error %v", round, err)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if acquires != 3 || releases != 3 {
		t.Fatalf("gate acquired %d, released %d (want 3/3)", acquires, releases)
	}
	if len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("failed rounds %v (want [1])", failed)
	}
}

// TestWatchOnErrorRecovery: a failed round leaves the feed intact,
// OnError elects to continue, and the very next round commits the
// retried work.
func TestWatchOnErrorRecovery(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	tr.InjectScanFault(&inject.ScanFault{FailEvery: 1, MaxFailures: 1})
	if _, err := c.Create("/w/retry-me", 2*64<<10); err != nil {
		t.Fatal(err)
	}
	var rounds []int
	var recovered *CheckResult
	err := tr.Watch(context.Background(), WatchOptions{
		Interval: time.Millisecond,
		Rounds:   2,
		OnError:  func(round int, err error) error { return nil },
		OnRound: func(round int, res *CheckResult) {
			rounds = append(rounds, round)
			recovered = res
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 1 || rounds[0] != 2 {
		t.Fatalf("completed rounds %v (want [2]: round 1 failed)", rounds)
	}
	if recovered.InodesRefreshed == 0 {
		t.Fatal("retried round committed nothing — the failed round lost the feed")
	}
	if st := tr.Stats(); st.Checks != 1 || st.InodesRescanned == 0 {
		t.Fatalf("stats after recovery: %+v", st)
	}
	assertSnapshotMatchesFullScan(t, tr, c)
}

// TestWatchOnErrorStops: a non-nil return from OnError ends the watch
// with exactly that error.
func TestWatchOnErrorStops(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	tr.InjectScanFault(&inject.ScanFault{FailEvery: 1, MaxFailures: 1})
	if _, err := c.Create("/w/fatal", 64<<10); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("escalated")
	err := tr.Watch(context.Background(), WatchOptions{
		Interval: time.Millisecond,
		OnError:  func(round int, err error) error { return sentinel },
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want the sentinel, got %v", err)
	}
}

// TestWatchNilOnErrorFailsFast: without an OnError hook the first
// failed round ends the watch with the round's error — the original
// contract a daemon opts out of.
func TestWatchNilOnErrorFailsFast(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	tr.InjectScanFault(&inject.ScanFault{FailEvery: 1, MaxFailures: 1})
	if _, err := c.Create("/w/fatal", 64<<10); err != nil {
		t.Fatal(err)
	}
	err := tr.Watch(context.Background(), WatchOptions{Interval: time.Millisecond, Rounds: 3})
	if !errors.Is(err, inject.ErrScanInjected) {
		t.Fatalf("want the round error, got %v", err)
	}
}

// TestWatchCancelDuringGateWait: a shutdown that lands while a round
// waits for a pool slot reports the cancellation, not a round error —
// and OnError is never invoked for it.
func TestWatchCancelDuringGateWait(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	err := tr.Watch(ctx, WatchOptions{
		Interval: time.Millisecond,
		Gate: func(ctx context.Context) (func(), error) {
			cancel() // shutdown arrives while queued for the pool
			<-ctx.Done()
			return nil, ctx.Err()
		},
		OnError: func(round int, err error) error {
			t.Errorf("OnError invoked for shutdown: %v", err)
			return err
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestWatchCancelMidRun: cancellation delivered between rounds (from an
// OnRound observer — mid-watch, not pre-loop) stops an unbounded watch
// with ctx's error.
func TestWatchCancelMidRun(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rounds int
	err := tr.Watch(ctx, WatchOptions{
		Interval: time.Millisecond,
		OnRound: func(round int, res *CheckResult) {
			rounds = round
			if round == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rounds != 2 {
		t.Fatalf("watch ran %d rounds after mid-run cancel", rounds)
	}
}

// TestWatchCancelBeatsPendingTick: a context cancelled while a tick is
// already pending must end the watch without another round. With a 1 ns
// interval the tick is due long before round 1 returns, so both select
// cases are ready every time; the loop used to pick between them at
// random and ran a round after cancellation about half the time.
func TestWatchCancelBeatsPendingTick(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		rounds := 0
		err := tr.Watch(ctx, WatchOptions{
			Interval: time.Nanosecond,
			OnRound: func(int, *CheckResult) {
				rounds++
				cancel()
			},
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("attempt %d: want context.Canceled, got %v", i, err)
		}
		if rounds != 1 {
			t.Fatalf("attempt %d: watch ran %d rounds, want 1 (a round ran after cancellation)", i, rounds)
		}
	}
}

// TestRoundReportsCoverage: a tracker round merges every server, and its
// result, report and run manifest say so, as an offline check of the
// same cluster does.
func TestRoundReportsCoverage(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	n := len(checker.ClusterImages(c))
	for round := 1; round <= 2; round++ {
		res, err := tr.Check()
		if err != nil {
			t.Fatal(err)
		}
		if want := (checker.Coverage{Total: n}); !reflect.DeepEqual(res.Coverage, want) {
			t.Fatalf("round %d: coverage %+v, want %+v", round, res.Coverage, want)
		}
		cov := res.Manifest(checker.DefaultOptions()).Results["coverage"].(map[string]any)
		if cov["total"] != n || cov["complete"] != n {
			t.Fatalf("round %d: manifest coverage %v, want total and complete %d", round, cov, n)
		}
		var buf bytes.Buffer
		if err := res.WriteReport(&buf, false); err != nil {
			t.Fatal(err)
		}
		if line := fmt.Sprintf("coverage: complete — all %d server(s) merged", n); !strings.Contains(buf.String(), line) {
			t.Fatalf("round %d: report lacks %q:\n%s", round, line, buf.String())
		}
		if _, err := c.Create(fmt.Sprintf("/w/cov%d", round), 64<<10); err != nil {
			t.Fatal(err)
		}
	}
}
