package online

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"faultyrank/internal/agg"
	"faultyrank/internal/checker"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
)

// bootstrapReference is the serial bootstrap the tracker ran before it
// swept its images as a cold check does: every allocated inode, in
// ascending order per server, parsed alone (scanner.ScanInode) and
// applied one at a time. It is kept as the specification the
// sweep-seeded builder must equal byte for byte.
func bootstrapReference(t testing.TB, images []*ldiskfs.Image) *agg.DeltaBuilder {
	t.Helper()
	labels := make([]string, len(images))
	for i, img := range images {
		labels[i] = img.Label()
	}
	db := agg.NewDeltaBuilder(labels)
	for si, img := range images {
		err := img.AllocatedInodes(func(ino ldiskfs.Ino, _ ldiskfs.FileType) error {
			p, err := scanner.ScanInode(img, ino)
			if err != nil {
				return err
			}
			return db.Apply(si, ino, p)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// roundReference replays one round's feeds the way the tracker did
// before it parsed a server's dirty inodes into one batch: per inode, in
// ascending order, a fresh single-inode scan applied alone, or a
// tombstone for a freed inode the builder tracks.
func roundReference(t testing.TB, db *agg.DeltaBuilder, images []*ldiskfs.Image, feeds [][]ldiskfs.Ino) {
	t.Helper()
	for si, img := range images {
		for _, ino := range feeds[si] {
			if !img.InodeAllocated(ino) {
				db.Remove(si, ino)
				continue
			}
			p, err := scanner.ScanInode(img, ino)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Apply(si, ino, p); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// fig7Cluster is the checker's Fig. 7 tree: three directories of four
// 3-stripe files over four OSTs.
func fig7Cluster(t testing.TB) *lustre.Cluster {
	t.Helper()
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 4, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		for f := 0; f < 4; f++ {
			if err := c.MkdirAll(fmt.Sprintf("/proj%d", d)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Create(fmt.Sprintf("/proj%d/file%d", d, f), 3*64<<10); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// campaignCluster is a campaign's shape: eight OSTs, twelve disjoint
// regions of six 3-stripe files, and one random Fig. 7 fault planted in
// each region.
func campaignCluster(t testing.TB, seed int64) *lustre.Cluster {
	t.Helper()
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 8, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	const regions, files = 12, 6
	for r := 0; r < regions; r++ {
		if err := c.MkdirAll(fmt.Sprintf("/region%02d", r)); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < files; f++ {
			if _, err := c.Create(fmt.Sprintf("/region%02d/f%02d", r, f), 3*64<<10); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < regions; r++ {
		s := inject.Scenario(rng.Intn(int(inject.NumScenarios)))
		if _, err := inject.Inject(c, s, fmt.Sprintf("/region%02d/f%02d", r, rng.Intn(files))); err != nil {
			t.Fatalf("seed %d: inject %v: %v", seed, s, err)
		}
	}
	return c
}

// plantTypedFree zeroes the mode of path's inode behind the metadata API:
// the bitmap still holds it allocated, its record reads free. A sweep
// visits such an inode and records why it cannot identify it.
func plantTypedFree(t testing.TB, c *lustre.Cluster, path string) ldiskfs.Ino {
	t.Helper()
	ent, err := c.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	img := c.MDT.Img
	off, err := img.InodeOffset(ent.Ino)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.CorruptBytes(off, []byte{0, 0}); err != nil { // the mode is the record's first field
		t.Fatal(err)
	}
	if typ, _ := img.Type(ent.Ino); typ != ldiskfs.TypeFree || !img.InodeAllocated(ent.Ino) {
		t.Fatalf("test vector: ino %d reads type %v, allocated %v", ent.Ino, typ, img.InodeAllocated(ent.Ino))
	}
	return ent.Ino
}

// assertBootstrapMatchesReference builds a tracker over c and requires
// its builder to encode exactly as the serial reference's does.
func assertBootstrapMatchesReference(t *testing.T, c *lustre.Cluster) *Tracker {
	t.Helper()
	images := checker.ClusterImages(c)
	want := bootstrapReference(t, images).EncodeBinary()
	tr, err := NewTracker(images, checker.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.delta.EncodeBinary(); !bytes.Equal(got, want) {
		t.Fatalf("sweep-seeded builder encodes %d bytes, the serial reference %d, and they differ", len(got), len(want))
	}
	return tr
}

// TestBootstrapMatchesSerialReference: NewTracker's parallel sweep seeds
// a builder whose FRDB bytes — interner order and so every IID, cached
// contributions, issues, per-inode stats, dirty set — equal the serial
// per-inode bootstrap's, on every Fig. 7 scenario, on campaign clusters
// of twelve faults (seeds 1–6), and with an inode that the bitmap holds
// allocated but whose record reads free. Rescan seeds the same bytes.
func TestBootstrapMatchesSerialReference(t *testing.T) {
	for s := inject.Scenario(0); s < inject.NumScenarios; s++ {
		t.Run(fmt.Sprintf("fig7/%v", s), func(t *testing.T) {
			c := fig7Cluster(t)
			if _, err := inject.Inject(c, s, "/proj1/file2"); err != nil {
				t.Fatal(err)
			}
			assertBootstrapMatchesReference(t, c)
		})
	}
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("campaign/seed%d", seed), func(t *testing.T) {
			assertBootstrapMatchesReference(t, campaignCluster(t, seed))
		})
	}
	t.Run("typed-free", func(t *testing.T) {
		c := newCluster(t)
		ino := plantTypedFree(t, c, "/w/f05")
		tr := assertBootstrapMatchesReference(t, c)
		if !tr.delta.Tracked(0, ino) {
			t.Fatalf("ino %d: the sweep visited it, the builder does not track it", ino)
		}
		want := tr.delta.EncodeBinary()
		if err := tr.Rescan(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tr.delta.EncodeBinary(), want) {
			t.Fatal("Rescan seeded other bytes than NewTracker")
		}
	})
}

// TestBatchRoundMatchesReference: a round's batch — every dirty inode of
// a server parsed into one reused partial and applied through the
// intake — leaves the builder byte-equal to the per-inode round it
// replaced, round after round: creates, unlinks, a rename, a truncate, a
// live fault and an inode planted typed free.
func TestBatchRoundMatchesReference(t *testing.T) {
	c := newCluster(t)
	images := checker.ClusterImages(c)
	ref := bootstrapReference(t, images)
	tr := newTracker(t, c)
	d := newDeltaScript(c, 3)
	for round := 0; round < 4; round++ {
		d.step(t)
		switch round {
		case 1:
			c.MDT.Img.MarkDirty(plantTypedFree(t, c, "/w/f06"))
		case 2:
			if _, err := inject.Inject(c, inject.DanglingDirent, "/w/f02"); err != nil {
				t.Fatal(err)
			}
		}
		feeds := make([][]ldiskfs.Ino, len(images))
		for si, img := range images {
			feeds[si] = img.DirtyInodes()
		}
		roundReference(t, ref, images, feeds)
		if _, err := tr.Update(); err != nil {
			t.Fatal(err)
		}
		if got, want := tr.delta.EncodeBinary(), ref.EncodeBinary(); !bytes.Equal(got, want) {
			t.Fatalf("round %d: the batch round encodes %d bytes, the per-inode round %d, and they differ", round, len(got), len(want))
		}
	}
	assertSnapshotMatchesFullScan(t, tr, c)
}

// TestFailedRescanKeepsSnapshot: a rescan whose sweep fails part-way
// changes nothing — not the snapshot, not the warm state, not a feed,
// not Stats — so the next check reports what the last one did. A rescan
// used to install its new builder first and clear each server's feed as
// it swept it, so a failure left a partial graph that the next check
// judged (spurious "nonexistent" findings until a good rescan).
func TestFailedRescanKeepsSnapshot(t *testing.T) {
	c := newCluster(t)
	if err := c.MkdirAll("/other"); err != nil {
		t.Fatal(err)
	}
	if _, err := inject.Inject(c, inject.DanglingDirent, "/w/f03"); err != nil {
		t.Fatal(err)
	}
	tr := newTracker(t, c)
	first, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	want := sortedFindings(first.Findings)
	if len(want) == 0 {
		t.Fatal("test vector: the fault yields no finding")
	}
	// A pending change the failed rescan must leave in its feed, away
	// from the fault so that it changes no finding.
	if _, err := c.Create("/other/pending", 2*64<<10); err != nil {
		t.Fatal(err)
	}
	images := checker.ClusterImages(c)
	feeds := make([][]ldiskfs.Ino, len(images))
	for si, img := range images {
		feeds[si] = img.DirtyInodes()
	}
	stats, snap := tr.Stats(), tr.EncodeSnapshot()

	// The third image fails: two servers have swept by then.
	tr.InjectScanFault(&inject.ScanFault{FailEvery: 3, MaxFailures: 1})
	if err := tr.Rescan(); !errors.Is(err, inject.ErrScanInjected) {
		t.Fatalf("rescan: want the injected fault, got %v", err)
	}
	if got := tr.Stats(); got != stats {
		t.Fatalf("stats after a failed rescan: %+v, want %+v", got, stats)
	}
	for si, img := range images {
		if got := img.DirtyInodes(); !slices.Equal(got, feeds[si]) {
			t.Fatalf("%s: feed %v after a failed rescan, want %v", img.Label(), got, feeds[si])
		}
	}
	if !bytes.Equal(tr.EncodeSnapshot(), snap) {
		t.Fatal("a failed rescan changed the tracker's durable state")
	}
	res, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	got := sortedFindings(res.Findings)
	if len(got) != len(want) {
		t.Fatalf("%d findings after a failed rescan, %d before:\n got  %v\n want %v", len(got), len(want), got, want)
	}
	// The pending create grows the graph, which moves the scores (and the
	// detail that prints them); what is judged, and how, stays.
	for i := range got {
		if got[i].Kind != want[i].Kind || got[i].FID != want[i].FID || got[i].Field != want[i].Field || !reflect.DeepEqual(got[i].Repairs, want[i].Repairs) {
			t.Fatalf("finding %d after a failed rescan: %+v, before: %+v", i, got[i], want[i])
		}
	}
}
