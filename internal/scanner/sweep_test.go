package scanner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

// wideCluster has one directory of n files striped over 8 OSTs on
// compact images: an MDT of ~n/64 block groups, and OSTs to match.
func wideCluster(tb testing.TB, n int) *lustre.Cluster {
	tb.Helper()
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 8, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.MkdirAll("/d"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if i%500 == 0 {
			if err := c.MkdirAll(fmt.Sprintf("/d/s%d", i/500)); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := c.Create(fmt.Sprintf("/d/s%d/f%d", i/500, i), int64(i%9)*64<<10); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// lookAhead is the most inodes a sweep may have scanned beyond the
// groups it released: one ring of group buffers.
func lookAhead(img *ldiskfs.Image, workers int) int64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return int64(2 * workers * img.Geometry().InodesPerGroup)
}

// assertNoSweepGoroutines fails if the goroutine count does not return
// to its level from before the sweep.
func assertNoSweepGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the sweep, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}

// TestSweepStopsOnSinkError: a sink that fails on chunk 0 ends the
// sweep with the sink's error after at most the look-ahead, not after
// the whole image, and no worker survives the return.
func TestSweepStopsOnSinkError(t *testing.T) {
	img := wideCluster(t, 4000).MDT.Img
	total := img.InodeCount()
	for _, w := range []int{0, 1, 3, 8} {
		before := runtime.NumGoroutine()
		em := newChunkEmitter(img.Label(), 16, &errSink{after: 0}, nil)
		swept, err := sweep(context.Background(), img, w, em)
		if !errors.Is(err, errSinkBoom) {
			t.Fatalf("workers %d: err = %v, want the sink's", w, err)
		}
		if max := lookAhead(img, w); swept > max || swept > total/2 {
			t.Fatalf("workers %d: swept %d of %d inodes after chunk 0 failed (look-ahead %d)", w, swept, total, max)
		}
		assertNoSweepGoroutines(t, before)
	}
}

// cancelSink cancels the scan's context once it has taken n chunks.
type cancelSink struct {
	n      int
	cancel context.CancelFunc
}

func (s *cancelSink) Emit(*Chunk) error {
	if s.n--; s.n == 0 {
		s.cancel()
	}
	return nil
}

// TestSweepStopsOnCancel: a context cancelled before the scan costs no
// inode; one cancelled mid-stream stops the sweep within the look-ahead
// of what was released. Both return ctx.Err().
func TestSweepStopsOnCancel(t *testing.T) {
	img := wideCluster(t, 4000).MDT.Img
	total := img.InodeCount()
	for _, w := range []int{0, 1, 3, 8} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		swept, err := sweep(ctx, img, w, newChunkEmitter(img.Label(), 16, &collectSink{}, nil))
		if !errors.Is(err, context.Canceled) || swept != 0 {
			t.Fatalf("workers %d, cancelled up front: swept %d, err %v", w, swept, err)
		}

		ctx, cancel = context.WithCancel(context.Background())
		sink := &cancelSink{n: 3, cancel: cancel}
		swept, err = sweep(ctx, img, w, newChunkEmitter(img.Label(), 256, sink, nil))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d, cancelled at chunk 3: err %v", w, err)
		}
		// Three 256-entry chunks are at most 768 inodes released, plus
		// the group that filled the third.
		if max := 768 + int64(img.Geometry().InodesPerGroup) + lookAhead(img, w); swept > max || swept > total/2 {
			t.Fatalf("workers %d: swept %d of %d inodes after cancellation at chunk 3 (bound %d)", w, swept, total, max)
		}
		assertNoSweepGoroutines(t, before)
	}
}

// TestScanImageToSinkCancelled keeps the exported contract: a cancelled
// context surfaces as ctx.Err() and nothing reaches the sink.
func TestScanImageToSinkCancelled(t *testing.T) {
	c := buildCluster(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sink collectSink
	err := ScanImageToSinkInstr(ctx, c.MDT.Img, 0, 4, &sink)
	if !errors.Is(err, context.Canceled) || len(sink.chunks) != 0 {
		t.Fatalf("err %v, %d chunks", err, len(sink.chunks))
	}
}

// countSink counts chunks and drops them.
type countSink struct{ chunks int }

func (s *countSink) Emit(*Chunk) error { s.chunks++; return nil }

// TestScanAllocs: a scan allocates what it hands the sink and little
// else — a constant number of allocations per chunk, none per inode,
// and at most 1.7 times the bytes of the fresh record sections the Sink
// contract makes it hand over (1.30 on the MDT, 1.47 on the OST, 1.58
// under -race).
func TestScanAllocs(t *testing.T) {
	c := wideCluster(t, 6000)
	for _, img := range []*ldiskfs.Image{c.MDT.Img, c.OSTs[0].Img} {
		p, err := ScanImage(img, 0)
		if err != nil {
			t.Fatal(err)
		}
		floor := uint64(len(p.Objects.Bytes()) + len(p.Edges.Bytes()))
		const chunkEntries = 256
		var sink countSink
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := ScanImageToSink(img, 2, chunkEntries, &sink); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > floor*17/10 {
			t.Errorf("%s: scan allocated %d bytes; the sections handed to the sink are %d (x%.2f, want <= 1.7)",
				img.Label(), got, floor, float64(got)/float64(floor))
		}
		chunks := sink.chunks
		allocs := testing.AllocsPerRun(3, func() {
			if err := ScanImageToSink(img, 2, chunkEntries, &countSink{}); err != nil {
				t.Fatal(err)
			}
		})
		// Per chunk: the Chunk and its (at most three) sections. Per
		// scan: emitter, ring, workers, and the growth of four group
		// buffers and the scratch chunk to their working size.
		if ceiling := float64(4*chunks + 120); allocs > ceiling {
			t.Errorf("%s: %v allocations for %d inodes in %d chunks, ceiling %v", img.Label(), allocs, p.Stats.InodesScanned, chunks, ceiling)
		}
	}
}

// dropSink counts chunks and drops them, borrowing the scratch chunk
// as the wire stream does.
type dropSink struct{ countSink }

func (*dropSink) BorrowsChunks() {}

// BenchmarkScan sweeps the MDT and one OST of the benchmark's
// cold_check_tcp cluster shape into a sink that drops the chunks, and,
// as stage, all nine of its images at once, each into a borrowing sink
// — the shape of the checker's TCP scan stage. Stage reports wall time
// per inode over all nine images and the bytes the sweeps allocate per
// edge they emit.
func BenchmarkScan(b *testing.B) {
	c := wideCluster(b, 24000)
	for _, img := range []*ldiskfs.Image{c.MDT.Img, c.OSTs[0].Img} {
		b.Run(img.Label(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := ScanImageToSink(img, 0, 0, &countSink{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(img.InodeCount()), "ns/inode")
		})
	}
	b.Run("stage", func(b *testing.B) {
		images := []*ldiskfs.Image{c.MDT.Img}
		for _, ost := range c.OSTs {
			images = append(images, ost.Img)
		}
		var inodes, edges int64
		for _, img := range images {
			p, err := ScanImage(img, 0)
			if err != nil {
				b.Fatal(err)
			}
			inodes += p.Stats.InodesScanned
			edges += int64(p.Edges.Len())
		}
		errs := make([]error, len(images))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ReportAllocs()
		for b.Loop() {
			var wg sync.WaitGroup
			for i, img := range images {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = ScanImageToSink(img, 0, 0, &dropSink{})
				}()
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				b.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(inodes), "ns/inode")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/float64(edges), "B/edge")
	})
}
