package agg

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
	"faultyrank/internal/workload"
)

// syntheticInode is the scan result of file k of a synthetic cluster on
// the MDT (server 0: the file, a LinkEA edge to a directory and LOVEA
// edges to two stripes) or of its stripe on an OST (one object, one
// filter-fid edge back).
func syntheticInode(server, k, ver int) *scanner.Partial {
	file := lustre.FID{Seq: lustre.MDTSeqBase, Oid: uint32(k), Ver: uint32(ver)}
	if server == 0 {
		dir := lustre.FID{Seq: lustre.MDTSeqBase, Oid: uint32(k / 64 * 64)}
		return &scanner.Partial{
			Objects: objectsOf(scanner.Object{FID: file, Ino: ldiskfs.Ino(k), Type: ldiskfs.TypeFile}),
			Edges: edgesOf(
				scanner.Edge{Dst: dir, Kind: graph.KindLinkEA},
				scanner.Edge{Dst: lustre.FID{Seq: lustre.OSTSeqBase + 1, Oid: uint32(k)}, Kind: graph.KindLOVEA},
				scanner.Edge{Dst: lustre.FID{Seq: lustre.OSTSeqBase + 2, Oid: uint32(k)}, Kind: graph.KindLOVEA},
			),
			Stats: scanner.Stats{InodesScanned: 1, EdgesEmitted: 3},
		}
	}
	obj := lustre.FID{Seq: lustre.OSTSeqBase + uint64(server), Oid: uint32(k)}
	return &scanner.Partial{
		Objects: objectsOf(scanner.Object{FID: obj, Ino: ldiskfs.Ino(k), Type: ldiskfs.TypeObject}),
		Edges:   edgesOf(scanner.Edge{Dst: file, Kind: graph.KindFilterFID}),
		Stats:   scanner.Stats{InodesScanned: 1, EdgesEmitted: 1},
	}
}

// syntheticDelta builds a three-server builder tracking n inodes, each
// server's handed to the intake as one sweep in ascending order, the way
// a tracker's bootstrap hands them (only even inode numbers, so that a
// delta has gaps to create into).
func syntheticDelta(tb testing.TB, n int) *DeltaBuilder {
	db := NewDeltaBuilder([]string{"mdt0", "ost0", "ost1"})
	for srv := 0; srv < 3; srv++ {
		var sweep scanner.Partial
		for k := 2; k <= 2*n/3; k += 2 {
			p := syntheticInode(srv, k, 0)
			base := uint32(sweep.Objects.Len())
			sweep.Objects.Append(p.Objects.At(0))
			for j := range p.Edges.Len() {
				e := p.Edges.At(j)
				e.Src += base
				sweep.Edges.Append(e)
			}
			sweep.Stats.Add(p.Stats)
		}
		if err := db.ApplyScan(srv, &sweep); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// twelveOps applies the benchmark's delta shape — 8 creates, 2 unlinks, a
// rename and a truncate, each touching the MDT inode and both stripes —
// at random places among the tracked inodes.
func twelveOps(tb testing.TB, db *DeltaBuilder, r *rand.Rand) {
	span := db.TrackedCount(0)
	for op := 0; op < 12; op++ {
		k := 2 + 2*r.Intn(span-1)
		for srv := 0; srv < 3; srv++ {
			var err error
			switch {
			case op < 8: // create, in a gap
				err = db.Apply(srv, ldiskfs.Ino(k+1), syntheticInode(srv, k+1, 0))
			case op < 10: // unlink
				db.Remove(srv, ldiskfs.Ino(k))
			case op == 10: // rename: same inode, new link
				p := syntheticInode(srv, k, 0)
				if srv == 0 {
					e, rest := p.Edges.At(0), p.Edges
					e.Dst.Oid += 64
					p.Edges = edgesOf(e)
					for i := 1; i < rest.Len(); i++ {
						p.Edges.Append(rest.At(i))
					}
				}
				err = db.Apply(srv, ldiskfs.Ino(k), p)
			default: // truncate: same inode, one stripe fewer
				p := syntheticInode(srv, k, 0)
				if srv == 0 {
					p.Edges = scanner.EdgeRecords(p.Edges.Bytes()[:2*scanner.EdgeSize])
				}
				err = db.Apply(srv, ldiskfs.Ino(k), p)
			}
			if err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestMaterializeAllocs: a steady-state round's Materialize rewrites the
// arrays it returned last round, claims and dirty seeds included, so it
// allocates nothing: in particular nothing per tracked inode, vertex or
// edge.
func TestMaterializeAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// measure returns the fewest allocations any round's Materialize
	// made: the steady state. The first round, which grows the exact-size
	// arrays of the full build and creates the splice scratch, is a
	// warm-up, as the first run of testing.AllocsPerRun is; a later round
	// may still regrow — amortised, as append does — an array that net
	// creates have filled.
	measure := func(n int) uint64 {
		db := syntheticDelta(t, n)
		db.Materialize()
		db.ResetDirty()
		r := rand.New(rand.NewSource(5))
		allocs := ^uint64(0)
		for round := 0; round < 6; round++ {
			twelveOps(t, db, r)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			db.Materialize()
			runtime.ReadMemStats(&after)
			db.ResetDirty()
			if round == 0 {
				continue
			}
			got := after.Mallocs - before.Mallocs
			if got > 8 {
				t.Fatalf("%d inodes: Materialize made %d allocations", n, got)
			}
			allocs = min(allocs, got)
		}
		return allocs
	}
	for _, n := range []int{2000, 20000} {
		if allocs := measure(n); allocs != 0 {
			t.Fatalf("%d inodes: a steady-state Materialize made %d allocations, want none", n, allocs)
		}
	}
}

// TestApplyLinearBuild: a sweep's ascending inodes, through the intake,
// append to the arrays; nothing is staged or spliced per inode, so twice
// the inodes cost about twice the time.
func TestApplyLinearBuild(t *testing.T) {
	for _, s := range syntheticDelta(t, 300).servers {
		if len(s.staged) != 0 || len(s.inodes) != 100 {
			t.Fatalf("%s: %d inodes staged, %d appended of a 100-inode sweep", s.label, len(s.staged), len(s.inodes))
		}
	}
	build := func(n int) time.Duration {
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			runtime.GC()
			t0 := time.Now()
			syntheticDelta(t, n).Materialize()
			best = min(best, time.Since(t0))
		}
		return best
	}
	const n = 30000
	var ratio float64
	for attempt := 0; attempt < 5; attempt++ {
		// A splice per Apply would make this ratio about 4.
		if ratio = float64(build(2*n)) / float64(build(n)); ratio <= 2.5 {
			return
		}
	}
	t.Fatalf("building %d inodes costs %.2fx as much as building %d", 2*n, ratio, n)
}

// BenchmarkMaterialize times one online round's Materialize on the
// benchmark's online_delta shape: an aged 24 000-MDT-inode cluster under
// a full scan, then per iteration 8 creates, 2 unlinks, a rename and a
// truncate applied outside the timer.
func BenchmarkMaterialize(b *testing.B) {
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 8, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := workload.Age(c, workload.AgeSpec{TargetMDTInodes: 24000, ChurnFraction: 0.15, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	images := clusterImages(c)
	labels := make([]string, len(images))
	for i, img := range images {
		labels[i] = img.Label()
	}
	db := NewDeltaBuilder(labels)
	refresh := func(si int, ino ldiskfs.Ino) error {
		if !images[si].InodeAllocated(ino) {
			db.Remove(si, ino)
			return nil
		}
		p, err := scanner.ScanInode(images[si], ino)
		if err != nil {
			return err
		}
		return db.Apply(si, ino, p)
	}
	for si, img := range images {
		if err := img.AllocatedInodes(func(ino ldiskfs.Ino, _ ldiskfs.FileType) error { return refresh(si, ino) }); err != nil {
			b.Fatal(err)
		}
		img.ClearDirty()
	}
	db.Materialize()
	db.ResetDirty()

	if err := c.MkdirAll("/delta"); err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	var live []string
	round := 0
	mutate := func() error {
		round++
		for i := 0; i < 8; i++ {
			p := fmt.Sprintf("/delta/r%06d-%d", round, i)
			if _, err := c.Create(p, 3*64<<10); err != nil {
				return err
			}
			live = append(live, p)
		}
		for i := 0; i < 2; i++ {
			k := r.Intn(len(live))
			if err := c.Unlink(live[k]); err != nil {
				return err
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		k := r.Intn(len(live))
		moved := fmt.Sprintf("%s.m%d", live[k], round)
		if err := c.Rename(live[k], moved); err != nil {
			return err
		}
		live[k] = moved
		if err := c.Truncate(live[r.Intn(len(live))], int64(1+r.Intn(5))*64<<10); err != nil {
			return err
		}
		for si, img := range images {
			for _, ino := range img.DirtyInodes() {
				if err := refresh(si, ino); err != nil {
					return err
				}
			}
			img.ClearDirty()
		}
		return nil
	}

	b.ReportAllocs()
	var vertices int
	for b.Loop() {
		b.StopTimer()
		if err := mutate(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		vertices = db.Materialize().U.N()
		db.ResetDirty()
	}
	b.ReportMetric(float64(vertices), "vertices/op")
}
