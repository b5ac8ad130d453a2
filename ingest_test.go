package faultyrank_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"faultyrank/internal/agg"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
	"faultyrank/internal/telemetry"
)

// ingestTimes is one scan→merge→build run of the streaming ingestion
// pipeline: the checker's scan→CSR span without ranking.
type ingestTimes struct {
	scan, merge, build time.Duration
}

// ingestJournalEvery mirrors the checker's chunk-event sampling stride
// so the overhead guards measure the deployed configuration.
const ingestJournalEvery = 64

// measureIngest runs every image's chunked scan concurrently into one
// agg.Builder, then merges and builds the CSR. A nil reg is the
// uninstrumented arm (nil instruments, one branch per event); a non-nil
// reg resolves the scanner and aggregator instruments from it, and a
// non-nil j additionally attaches the flight recorder to the scanner's
// sampled chunk events and the aggregator's merge milestones.
func measureIngest(images []*ldiskfs.Image, workers int, reg *telemetry.Registry, j *telemetry.Journal) (ingestTimes, error) {
	var out ingestTimes
	labels := make([]string, len(images))
	for i, img := range images {
		labels[i] = img.Label()
	}
	builder := agg.NewBuilder(labels)
	var ins *scanner.Instr
	if reg != nil {
		ins = scanner.NewInstr(reg)
		ins.AttachJournal(j, ingestJournalEvery)
		m := agg.NewMetrics(reg)
		m.Journal = j
		builder.Observe(m)
	}

	t0 := time.Now()
	errs := make([]error, len(images))
	var wg sync.WaitGroup
	for i, img := range images {
		wg.Add(1)
		go func(i int, img *ldiskfs.Image) {
			defer wg.Done()
			errs[i] = scanner.ScanImageToSinkInstr(context.Background(), img, workers, 0, builder, ins)
		}(i, img)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	out.scan = time.Since(t0)

	t1 := time.Now()
	u, err := builder.Finish(workers)
	if err != nil {
		return out, err
	}
	out.merge = time.Since(t1)

	t2 := time.Now()
	g := u.Build(workers)
	out.build = time.Since(t2)
	if g.N() != u.N() {
		return out, fmt.Errorf("CSR lost vertices (%d != %d)", g.N(), u.N())
	}
	return out, nil
}

// TestMeasureIngestObservedCounters: the instrumented ingest run must
// report exactly what the scan produced — the counters are a second,
// independently-batched tally of the same sweep.
func TestMeasureIngestObservedCounters(t *testing.T) {
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 2, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := c.Create("/d/f"+string(rune('a'+i)), 2*64<<10); err != nil {
			t.Fatal(err)
		}
	}
	images := []*ldiskfs.Image{c.MDT.Img}
	for _, ost := range c.OSTs {
		images = append(images, ost.Img)
	}

	var wantInodes, wantEdges int64
	for _, img := range images {
		p, err := scanner.ScanImage(img, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantInodes += p.Stats.InodesScanned
		wantEdges += p.Stats.EdgesEmitted
	}

	reg := telemetry.NewRegistry()
	if _, err := measureIngest(images, 0, reg, nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("scanner_inodes_scanned_total").Value(); got != wantInodes {
		t.Errorf("inodes counter = %d, want %d", got, wantInodes)
	}
	if got := reg.Counter("scanner_edges_emitted_total").Value(); got != wantEdges {
		t.Errorf("edges counter = %d, want %d", got, wantEdges)
	}
	if got := reg.Counter("agg_chunks_total").Value(); got == 0 {
		t.Error("builder saw no chunks")
	}
	if got := reg.Gauge("agg_interned_fids").Value(); got == 0 {
		t.Error("interner gauge not set")
	}
}
