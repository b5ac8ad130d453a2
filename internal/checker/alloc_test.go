package checker

import (
	"runtime"
	"testing"

	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/workload"
)

// tcpCheckBytesPerVertex is TestTCPCheckAllocs' ceiling: the measured
// cost plus 32 bytes of margin. A check of its cluster allocates 403
// bytes per vertex (549 under -race, whose scheduling grows more group
// buffers), about 37 more if the merge keeps its claims as a slice per
// vertex, 73 more if the scanner copies every chunk for the wire stream,
// and 90 more if ten journals preallocate their rings.
const tcpCheckBytesPerVertex = 435

// TestTCPCheckAllocs: what a TCP cold check allocates, per vertex of a
// fixed aged cluster (cold_check_tcp's shape at a quarter of its size,
// two workers), stays under a ceiling that per-vertex claim slices, the
// chunk copies or the preallocated rings alone would break (wider or
// second count arrays are TestNewBidirectedAllocs' to catch).
func TestTCPCheckAllocs(t *testing.T) {
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 8, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Age(c, workload.AgeSpec{TargetMDTInodes: 6000, ChurnFraction: 0.15, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	images := ClusterImages(c)
	opt := DefaultOptions()
	opt.UseTCP = true
	opt.Workers = 2
	if _, err := Run(images, opt); err != nil { // warm-up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(images, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(res.Unified.N())
	limit := tcpCheckBytesPerVertex * n
	if raceEnabled {
		limit = limit * 13 / 10
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("a TCP check of %d vertices allocated %d bytes (%d per vertex), ceiling %d", n, got, got/n, limit)
	}
}
