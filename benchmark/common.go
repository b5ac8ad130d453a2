package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"faultyrank/internal/agg"
	"faultyrank/internal/checker"
	"faultyrank/internal/core"
	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
	"faultyrank/internal/workload"
)

// bench is one workload: a set of inputs plus the operation measured on
// them. The runner drives every workload through the same phases: set-up,
// warm-up operations, timed operations with tracing off, then traced
// operations in the same process.
type bench interface {
	// setup generates the inputs from the seed alone and computes the
	// reference the oracle compares every operation against.
	setup(seed int64, sz sizes) error
	// op runs one operation. The sample holds result_s and alloc_mib of
	// the timed section plus whatever the operation's result already
	// reports. An error — from the program or from the oracle — is a
	// failed operation.
	op() (sample, error)
	// traced drives one operation stage by stage through the layers'
	// public functions under tr, then once through the pipeline, and
	// fails unless both give the same result.
	traced(tr *tracer) (sample, error)
	// finish runs the end-of-run oracle and the one-shot probes; probes
	// run only when tr is non-nil.
	finish(tr *tracer) (sample, error)
	// inputs names the generated input sizes for the provenance block.
	inputs() map[string]int64
}

// timed runs fn, recording its wall time and allocation in s. Every
// operation starts from a collected heap, as a fresh checker process
// would: where the previous operation's garbage happens to be collected
// otherwise decides both the peak RSS and a tenth of the time. The
// collection and the allocation counter reads are outside the timer.
func timed(s sample, fn func()) {
	runtime.GC()
	a0 := totalAlloc()
	t0 := time.Now()
	fn()
	s["result_s"] = time.Since(t0).Seconds()
	s["alloc_mib"] = float64(totalAlloc()-a0) / (1 << 20)
}

// agedCluster is the paper's testbed shape (1 MDT + 8 OSTs, 64 KiB
// stripes over all OSTs) aged to target MDT inodes. It also returns the
// generation rate in inodes per second (lustre.setup_inodes_per_s).
func agedCluster(target int64, seed int64) (*lustre.Cluster, float64, error) {
	t0 := time.Now()
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 8, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		return nil, 0, err
	}
	_, err = workload.Age(c, workload.AgeSpec{TargetMDTInodes: target, ChurnFraction: 0.15, Seed: seed})
	return c, float64(c.TotalInodes()) / time.Since(t0).Seconds(), err
}

func imageBytes(images []*ldiskfs.Image) int64 {
	var n int64
	for _, img := range images {
		n += int64(len(img.Bytes()))
	}
	return n
}

// copyImages deep-copies server images so an operation that repairs
// them leaves the originals faulted for the next one.
func copyImages(images []*ldiskfs.Image) ([]*ldiskfs.Image, error) {
	out := make([]*ldiskfs.Image, len(images))
	for i, img := range images {
		cp, err := ldiskfs.FromBytes(append([]byte(nil), img.Bytes()...))
		if err != nil {
			return nil, err
		}
		out[i] = cp
	}
	return out, nil
}

// digest is what two runs over the same input must agree on.
type digest struct {
	N          int
	E          int64
	Iterations int
	IDHash     uint64
	PropHash   uint64
	Findings   int
	FindHash   uint64
}

func hashRanks(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

func hashFindings(fs []checker.Finding) uint64 {
	h := fnv.New64a()
	for _, f := range fs {
		fmt.Fprintf(h, "%d|%v|%d|%v\n", f.Kind, f.FID, f.Field, f.Repairs)
	}
	return h.Sum64()
}

func rankDigest(n int, e int64, r *core.Result) digest {
	return digest{N: n, E: e, Iterations: r.Iterations,
		IDHash: hashRanks(r.IDRank), PropHash: hashRanks(r.PropRank)}
}

func resultDigest(res *checker.Result) digest {
	d := rankDigest(res.Unified.N(), res.Stats.Edges, res.Rank)
	d.Findings = len(res.Findings)
	d.FindHash = hashFindings(res.Findings)
	return d
}

// sameDigest is the equality every oracle and the staged-vs-pipeline
// check rest on.
func sameDigest(what string, got, want digest) error {
	if got != want {
		return fmt.Errorf("%s diverges from reference: got %+v, want %+v", what, got, want)
	}
	return nil
}

// recSink records a scan's chunk stream so later stages can replay it.
type recSink struct{ chunks []*scanner.Chunk }

func (r *recSink) Emit(c *scanner.Chunk) error {
	r.chunks = append(r.chunks, c)
	return nil
}

func labelsOf(images []*ldiskfs.Image) []string {
	labels := make([]string, len(images))
	for i, img := range images {
		labels[i] = img.Label()
	}
	return labels
}

// stagedScan sweeps each image on its own, one after the other, so each
// server's scan time is known; the pipeline runs them concurrently, so
// its scan stage is as long as the slowest (scan_max_s), not the sum.
func stagedScan(tr *tracer, parent int, s sample, images []*ldiskfs.Image) ([][]*scanner.Chunk, error) {
	streams := make([][]*scanner.Chunk, len(images))
	for i, img := range images {
		sink := &recSink{}
		var err error
		d, alloc := tr.stage(parent, "scanner.scan:"+img.Label(), func() {
			err = scanner.ScanImageToSink(img, 0, 0, sink)
		})
		if err != nil {
			return nil, err
		}
		streams[i] = sink.chunks
		s["scanner.scan_busy_s"] += d
		s["scanner.scan_max_s"] = max(s["scanner.scan_max_s"], d)
		s["scanner.alloc_mib"] += alloc
		s["scanner.chunks"] += float64(len(sink.chunks))
		for _, c := range sink.chunks {
			s["scanner.inodes"] += float64(c.Stats.InodesScanned)
		}
	}
	s["scanner.ns_per_inode"] = s["scanner.scan_busy_s"] * 1e9 / s["scanner.inodes"]
	return streams, nil
}

// stagedMerge feeds the recorded chunks to a Builder and merges them.
func stagedMerge(tr *tracer, parent int, s sample, labels []string, streams [][]*scanner.Chunk) (*agg.Unified, error) {
	b := agg.NewBuilder(labels)
	var err error
	d, alloc := tr.stage(parent, "agg.intake", func() {
		for _, chunks := range streams {
			for _, c := range chunks {
				if err = b.Emit(c); err != nil {
					return
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	s["agg.intake_s"], s["agg.alloc_mib"] = d, alloc
	var u *agg.Unified
	d, alloc = tr.stage(parent, "agg.merge", func() { u, err = b.Finish(0) })
	if err != nil {
		return nil, err
	}
	s["agg.merge_s"] = d
	s["agg.alloc_mib"] += alloc
	s["agg.vertices"] = float64(u.N())
	s["agg.edges"] = float64(len(u.Edges))
	s["agg.ns_per_edge"] = d * 1e9 / float64(len(u.Edges))
	return u, nil
}

// stagedAnalyze drives the post-merge stages the way
// checker.AnalyzeUnified does — CSR build, iteration, detection — each
// under its own span, then AnalyzeUnified itself, whose time beyond
// those three is the checker's own (classification, stats, manifests).
// The standalone ranks must equal the ones AnalyzeUnified computed.
func stagedAnalyze(tr *tracer, parent int, s sample, images []*ldiskfs.Image, u *agg.Unified, opt checker.Options) (*checker.Result, error) {
	var built *graph.Bidirected
	d, alloc := tr.stage(parent, "graph.build", func() { built = u.Build(0) })
	s["graph.build_s"], s["graph.alloc_mib"] = d, alloc
	s["graph.bytes_computed"] = float64(built.MemoryBytes())
	s["graph.ns_per_edge"] = d * 1e9 / float64(len(u.Edges))
	children := d

	var rank *core.Result
	iterKey, iterSpan := "core.iterate_s", "core.iterate"
	if opt.RankIncremental {
		iterKey, iterSpan = "core.incr_s", "core.incremental"
	}
	d, alloc = tr.stage(parent, iterSpan, func() {
		if opt.RankIncremental {
			rank = core.RunIncremental(built, opt.Core, opt.RankFrontier)
		} else {
			rank = core.Run(built, opt.Core)
		}
	})
	s[iterKey], s["core.alloc_mib"] = d, alloc
	children += d

	var rep *core.Report
	d, alloc = tr.stage(parent, "core.detect", func() { rep = core.Detect(built, rank, u.Present, opt.Core) })
	s["core.detect_s"] = d
	s["core.alloc_mib"] += alloc
	s["core.suspects"] = float64(len(rep.Suspects))
	children += d

	res := &checker.Result{}
	var err error
	d, _ = tr.stage(parent, "checker.analyze", func() { err = checker.AnalyzeUnified(res, images, u, opt) })
	if err != nil {
		return nil, err
	}
	s["checker.analyze_self_s"] = max(0, d-children)
	s["graph.unpaired_edges"] = float64(res.Stats.UnpairedEdges)
	s["checker.findings"] = float64(len(res.Findings))
	if !opt.RankIncremental {
		s["core.iterations"] = float64(rank.Iterations)
		s["core.ns_per_edge_iter"] = s[iterKey] * 1e9 / (float64(res.Stats.Edges) * float64(max(rank.Iterations, 1)))
	}
	staged := rankDigest(u.N(), res.Stats.Edges, rank)
	piped := rankDigest(u.N(), res.Stats.Edges, res.Rank)
	return res, sameDigest("standalone rank stage", staged, piped)
}

// serialProbe reruns the iteration on one worker over a built graph:
// the plain single-threaded baseline parallel_speedup is a ratio to.
func serialProbe(tr *tracer, s sample, built *graph.Bidirected, parallelS float64) {
	opt := core.DefaultOptions()
	opt.Workers = 1
	d, _ := tr.stage(-1, "probe.serial_iterate", func() { core.Run(built, opt) })
	s["core.serial_iterate_s"] = d
	s["core.parallel_speedup"] = d / parallelS
}
