// Package checker orchestrates the end-to-end FaultyRank pipeline on a
// set of server images (paper Fig. 6): parallel per-server scanners
// streaming bounded chunks into the aggregator (overlapping transfer
// with aggregation) → FID→GID remap and CSR build → the iterative
// FaultyRank algorithm → fault classification and repair
// recommendations. It reports the paper's stage timings (T_scan,
// T_graph, T_FR) used in Table VI.
package checker

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"faultyrank/internal/agg"
	"faultyrank/internal/core"
	"faultyrank/internal/graph"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
	"faultyrank/internal/telemetry"
	"faultyrank/internal/wire"
)

// Options configures a checker run.
type Options struct {
	// Workers bounds parallelism in scanners and graph kernels.
	Workers int
	// Core configures the FaultyRank iteration and detection.
	Core core.Options
	// UseTCP routes chunk streams through localhost TCP (the paper's
	// deployment shape: scanners on OSS nodes ship graphs to the MDS
	// aggregator). False hands the chunks over in process.
	UseTCP bool
	// ChunkSize bounds the entries per streamed scanner chunk
	// (<= 0 = scanner.DefaultChunkEntries).
	ChunkSize int
	// SplitProperties additionally runs the per-plane (namespace vs
	// layout) rank extension (paper §VIII future work) and folds in the
	// faults it attributes that the merged ranks dilute away — e.g. a
	// corrupted LinkEA hiding behind a healthy layout.
	SplitProperties bool

	// ScanTimeout bounds the whole scan→ship→collect stage on the TCP
	// path (0 = no deadline). When it expires, the collector stops
	// waiting, stalled connections are cut, and — with AllowDegraded —
	// the run completes from the surviving streams.
	ScanTimeout time.Duration
	// OpTimeout bounds each individual frame write/ack read on a chunk
	// stream (0 = the scan deadline only).
	OpTimeout time.Duration
	// AllowDegraded lets the run complete when scanner streams are lost
	// (crash, stall, corrupt frame, missed deadline): the unified graph
	// is built from the surviving partials and Result.Coverage names the
	// missing servers. False (the default) keeps the strict behaviour —
	// any stream failure aborts the run.
	AllowDegraded bool
	// NetFaults injects a network fault into the named servers' chunk
	// streams on the TCP path — the test/bench hook for exercising the
	// failure model (nil = no faults).
	NetFaults map[string]*inject.NetFault

	// RankWorkers shards the CSR across this many rank partitions and
	// iterates as BSP supersteps (internal/core superstep protocol);
	// <= 1 runs the legacy single-process kernel. The partitioned path
	// is exact — ranks and findings are bit-identical to the
	// single-process kernel for any worker count — so this trades
	// nothing but exchange overhead for per-partition parallelism. The
	// workers are goroutines of this process behind a localhost rank
	// exchange (wire.ServeRankWorker over TCP links). A graph the kernel
	// skips (core.Options.Skips) opens no exchange.
	RankWorkers int
	// RankFaults injects a crash into the numbered rank partitions'
	// superstep links — the test/bench hook for the rank-stage failure
	// model (nil = no faults). A lost partition fails a strict run with
	// a PartError naming it; with AllowDegraded the checker falls back
	// to the single-process kernel (the whole graph is local to the
	// coordinator) and records the fallback in the rank manifest.
	RankFaults map[int]*inject.RankFault

	// RankIncremental runs the frontier-based incremental kernel
	// (core.RunIncremental) instead of full sweeps, seeded from
	// RankFrontier — the online tracker's warm path, where the work
	// should scale with the delta, not the graph. It applies only to the
	// single-process kernel (RankWorkers <= 1); the partitioned BSP
	// execution always sweeps its whole shard. Without warm-start
	// vectors in Core the incremental kernel degenerates to a plain
	// cold Run, so setting this on a cold check is harmless.
	RankIncremental bool
	// RankFrontier is the dirty-vertex seed set (current-GID space) for
	// RankIncremental: every vertex whose contribution to the unified
	// graph changed since the warm-start ranks were saved.
	RankFrontier []uint32

	// Metrics is the registry the run's instruments resolve from. Nil
	// means a private per-run registry — Result.Metrics, Result.Scan and
	// the report counters are populated either way. Pass a shared
	// registry to expose the same instruments on a live /metrics
	// endpoint (cmd/faultyrank -metrics-addr) or across repeated runs;
	// per-run views (NetStats, ScanStats) are computed as counter
	// deltas, so sharing stays correct.
	Metrics *telemetry.Registry

	// Journal is the coordinator-lane flight recorder the run's typed
	// events land in (dial retries, stream errors, degraded transitions,
	// merge milestones, rank progress). Nil means a private per-run
	// journal — Result.Journal is populated either way. Pass a shared
	// journal to accumulate events across repeated runs (the online
	// tracker does); its events then carry every round, and per-run
	// Result.Journal snapshots grow with it until the ring wraps.
	Journal *telemetry.Journal
}

// Coverage reports which servers' partial graphs made it into the
// unified metadata graph. A non-degraded run covers every server; a
// degraded run names the servers whose streams never completed, whose
// metadata is therefore absent from the graph and whose findings the
// report flags as incomplete.
type Coverage struct {
	// Total is the number of server images the run was asked to check.
	Total int
	// Missing lists the servers whose streams never completed, in
	// canonical label order.
	Missing []string
}

// Degraded reports whether any server's stream was lost.
func (c Coverage) Degraded() bool { return len(c.Missing) > 0 }

// Complete is the number of server streams that fully arrived.
func (c Coverage) Complete() int { return c.Total - len(c.Missing) }

// NetStats aggregates the wire-level counters of one TCP scan stage
// (zero for in-process runs).
type NetStats struct {
	// Frames and Bytes count the chunk frames the collector decoded.
	Frames, Bytes int64
	// DialRetries counts sender-side redials across all scanners.
	DialRetries int64
	// StreamErrors describes each failed or aborted stream.
	StreamErrors []string
}

// DefaultOptions mirrors the paper's configuration.
func DefaultOptions() Options {
	return Options{Core: core.DefaultOptions()}
}

// FindingKind classifies one reported inconsistency.
type FindingKind uint8

const (
	// FaultyID: an object's identity scored below threshold.
	FaultyID FindingKind = iota
	// FaultyProperty: an object's pointing metadata scored below
	// threshold.
	FaultyProperty
	// StaleObject: an object points at an owner FID that exists nowhere
	// (lost file); LFSCK's lost+found territory.
	StaleObject
	// DuplicateIdentity: more than one physical inode claims one FID.
	DuplicateIdentity
	// OrphanObject: a present object participates in no relation at all.
	OrphanObject
	// ParseDamage: the scanner could not decode some metadata.
	ParseDamage
	// Ambiguous: an unpaired relation whose root cause the ranks cannot
	// attribute (paper §VI: user input needed).
	Ambiguous
	// DetachedNamespace: an island of namespace objects whose relations
	// pair perfectly yet which no root path reaches — the coherent
	// corruption the paper declares undetectable (§VI); found here by
	// the reachability extension.
	DetachedNamespace
)

func (k FindingKind) String() string {
	switch k {
	case FaultyID:
		return "faulty-id"
	case FaultyProperty:
		return "faulty-property"
	case StaleObject:
		return "stale-object"
	case DuplicateIdentity:
		return "duplicate-identity"
	case OrphanObject:
		return "orphan-object"
	case ParseDamage:
		return "parse-damage"
	case Ambiguous:
		return "ambiguous"
	case DetachedNamespace:
		return "detached-namespace"
	default:
		return fmt.Sprintf("finding(%d)", uint8(k))
	}
}

// RepairAction is a concrete, applyable fix in FID space.
type RepairAction struct {
	Op        core.RepairOp
	TargetFID lustre.FID
	SourceFID lustre.FID
	Kind      graph.EdgeKind
	// NewID is the corrected identity for RepairSetID actions (resolved
	// by matching the mis-identified object against the phantom FID its
	// peers still reference).
	NewID lustre.FID
	// Loc pins the action to one physical inode when TargetFID alone is
	// ambiguous (duplicate-identity quarantines).
	Loc agg.ObjectLoc
}

func (a RepairAction) String() string {
	switch a.Op {
	case core.RepairSetID:
		return fmt.Sprintf("set-id %v -> %v", a.TargetFID, a.NewID)
	case core.RepairSetProperty:
		return fmt.Sprintf("set-%v of %v to point at %v", a.Kind, a.TargetFID, a.SourceFID)
	default:
		return fmt.Sprintf("drop %v pointer of %v toward %v", a.Kind, a.TargetFID, a.SourceFID)
	}
}

// Finding is one classified inconsistency with its recommended repairs.
type Finding struct {
	Kind    FindingKind
	FID     lustre.FID
	Field   core.Field
	Score   float64
	Detail  string
	Repairs []RepairAction
	// Blast is the finding's blast radius: how many metadata relations
	// (incoming plus outgoing edges) touch the faulty object. A dangling
	// dirent on a hot directory carries a large Blast; an isolated
	// orphan object carries zero. Severity rules (internal/health) use
	// it to separate contained faults from ones whose repair delay
	// spreads.
	Blast int
}

// Result is the outcome of one checker run.
type Result struct {
	// Stage timings (paper Table VI columns).
	TScan, TGraph, TRank time.Duration

	// Coverage names the servers whose partial graphs were merged; a
	// degraded run lists the lost servers in Coverage.Missing.
	Coverage Coverage
	// Net carries the scan stage's transfer counters (TCP path only).
	Net NetStats
	// Scan carries the scanner-side telemetry counters (both paths).
	Scan ScanStats
	// Phases is the run's phase-timing tree: run → scan (one child per
	// server) → aggregate (merge, build) → rank (iterate, classify).
	Phases *telemetry.SpanNode
	// Metrics is the deterministic end-of-run registry snapshot.
	Metrics telemetry.Snapshot
	// Cluster is the cluster-scoped telemetry view: one section per
	// server (wire-shipped snapshots on the TCP path), merged cluster
	// totals, and the straggler analysis. Nil for Analyze-only results
	// (no scan stage ran).
	Cluster *ClusterManifest
	// Journal is the run's flight record: the coordinator's event
	// section first, then one section per server whose journal arrived
	// (as a wire trailer on the TCP path, directly in process). Encode
	// with telemetry.EncodeJournal / WriteJournalFile and render with
	// cmd/frtrace.
	Journal []telemetry.JournalSnapshot

	// RankExec describes the partitioned rank execution — partition
	// shapes, per-superstep exchange stats, degraded fallback — and is
	// also folded into Cluster as its rank section. Nil when the
	// single-process kernel ran (RankWorkers <= 1).
	RankExec *RankManifest

	Unified  *agg.Unified
	Graph    *graph.Bidirected
	Rank     *core.Result
	Report   *core.Report
	Stats    graph.Stats
	Findings []Finding

	// reach is the reachability pass's BFS storage, kept for the next
	// AnalyzeUnified handed this result.
	reach reachScratch
}

// Total returns the end-to-end time.
func (r *Result) Total() time.Duration { return r.TScan + r.TGraph + r.TRank }

// FindingsOfKind filters findings.
func (r *Result) FindingsOfKind(k FindingKind) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Kind == k {
			out = append(out, f)
		}
	}
	return out
}

// HasFinding reports whether a finding of kind k names fid.
func (r *Result) HasFinding(k FindingKind, fid lustre.FID) bool {
	for _, f := range r.Findings {
		if f.Kind == k && f.FID == fid {
			return true
		}
	}
	return false
}

// Run executes the full pipeline over the server images, which must be
// ordered MDT first, then OSTs by index (the label order also used for
// deterministic GID assignment). Scanners stream bounded chunks into
// the aggregator's Builder — directly or over TCP — so T_scan covers
// scan plus transfer, and T_graph covers the merge (straight from the
// retained chunks: FIDs interned into one flat table, edges translated
// in parallel) plus the CSR build.
func Run(images []*ldiskfs.Image, opt Options) (*Result, error) {
	return RunContext(context.Background(), images, opt)
}

// RunContext is Run under a context: cancelling ctx (or exceeding
// opt.ScanTimeout on the TCP path) unwedges every network wait in the
// collection stage, so a crashed or stalled scanner can never hang the
// checker. With opt.AllowDegraded the run then completes from the
// surviving scanner streams and Result.Coverage names the lost servers.
func RunContext(ctx context.Context, images []*ldiskfs.Image, opt Options) (*Result, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("checker: no images")
	}
	if opt.Core.MaxIterations == 0 {
		opt.Core = core.DefaultOptions()
	}
	res := &Result{Coverage: Coverage{Total: len(images)}}
	obs := newRunObs(opt.Metrics, opt.Journal)
	ctx, root := telemetry.StartSpan(ctx, "run")
	transport := "in-process"
	if opt.UseTCP {
		transport = "tcp"
	}
	obs.journal.Record("checker", "run",
		"servers", fmt.Sprintf("%d", len(images)), "transport", transport)

	labels := make([]string, len(images))
	for i, img := range images {
		labels[i] = img.Label()
	}
	builder := agg.NewBuilder(labels)
	builder.Observe(obs.aggM)

	// ---- Stage 1: parallel scanners streaming chunks (T_scan) --------
	t0 := time.Now()
	scanCtx, scanSpan := telemetry.StartSpan(ctx, "scan")
	var err error
	var ships []*wire.Telemetry
	if opt.UseTCP {
		ships, err = streamOverTCP(scanCtx, images, builder, opt, res, obs)
	} else {
		ships, err = streamInProcess(scanCtx, images, builder, opt, obs)
	}
	scanSpan.End()
	if err != nil {
		return nil, err
	}
	res.TScan = time.Since(t0)
	res.Cluster = BuildClusterManifest(labels, ships)

	// ---- Stage 2: merge + CSR build (T_graph) -------------------------
	t1 := time.Now()
	aggCtx, aggSpan := telemetry.StartSpan(ctx, "aggregate")
	_, mergeSpan := telemetry.StartSpan(aggCtx, "merge")
	if opt.AllowDegraded {
		var missing []string
		res.Unified, missing, err = builder.FinishCompleted(opt.Workers)
		res.Coverage.Missing = missing
		if len(missing) > 0 {
			obs.journal.Record("checker", "degraded",
				"missing", strings.Join(missing, ","))
		}
	} else {
		res.Unified, err = builder.Finish(opt.Workers)
	}
	mergeSpan.End()
	if err != nil {
		aggSpan.End()
		return nil, err
	}
	_, buildSpan := telemetry.StartSpan(aggCtx, "build")
	res.Graph = res.Unified.Build(opt.Workers)
	buildSpan.End()
	aggSpan.End()
	res.TGraph = time.Since(t1)

	err = rankAndClassify(ctx, res, images, opt, obs)
	obs.finish(res, root)
	return res, err
}

// AnalyzeUnified runs the post-merge stages — CSR build, ranking and
// classification — over an already-materialised unified graph. It is
// the online checker's per-check entry point: the incremental
// aggregator (agg.DeltaBuilder) maintains the Unified across checks, so
// neither scanning nor merging re-runs; what remains is exactly the
// work any check must do on the current graph.
//
// Every field of res is overwritten. The storage res already holds — a
// Graph, a Rank, the reachability scratch — is rewritten in place rather
// than reallocated (graph.Bidirected.Rebuild, core.Options.Reuse), so a
// caller that analyses round after round into one result's storage
// allocates little beyond what the round changed; the numbers are those
// of an analysis into a zero Result. A result copied from an earlier one
// shares that storage: whatever was read from the earlier result's Graph
// and Rank now holds this analysis.
func AnalyzeUnified(res *Result, images []*ldiskfs.Image, u *agg.Unified, opt Options) error {
	if opt.Core.MaxIterations == 0 {
		opt.Core = core.DefaultOptions()
	}
	*res = Result{Graph: res.Graph, Rank: res.Rank, reach: res.reach}
	obs := newRunObs(opt.Metrics, opt.Journal)
	ctx, root := telemetry.StartSpan(context.Background(), "analyze")
	t1 := time.Now()
	aggCtx, aggSpan := telemetry.StartSpan(ctx, "aggregate")
	_, buildSpan := telemetry.StartSpan(aggCtx, "build")
	res.Unified = u
	if res.Graph == nil {
		res.Graph = u.Build(opt.Workers)
	} else {
		res.Graph.Rebuild(u.N(), u.Edges, true, opt.Workers)
	}
	buildSpan.End()
	aggSpan.End()
	res.TGraph = time.Since(t1)
	err := rankAndClassify(ctx, res, images, opt, obs)
	obs.finish(res, root)
	return err
}

// rankAndClassify is stage 3 (T_FR), shared by Run and Analyze:
// FaultyRank iteration — single-process or partitioned per
// opt.RankWorkers — then detection and fault classification.
func rankAndClassify(ctx context.Context, res *Result, images []*ldiskfs.Image, opt Options, obs *runObs) error {
	t2 := time.Now()
	rankCtx, rankSpan := telemetry.StartSpan(ctx, "rank")
	iterCtx, iterSpan := telemetry.StartSpan(rankCtx, "iterate")
	err := runRank(iterCtx, res, opt, obs)
	iterSpan.End()
	if err != nil {
		rankSpan.End()
		res.TRank = time.Since(t2)
		return err
	}
	_, classifySpan := telemetry.StartSpan(rankCtx, "classify")
	res.Report = core.Detect(res.Graph, res.Rank, res.Unified.Present, opt.Core)
	byLabel := make(map[string]*ldiskfs.Image, len(images))
	for _, img := range images {
		byLabel[img.Label()] = img
	}
	res.Findings = classify(res, byLabel, opt)
	res.Stats = res.Graph.Stats(opt.Workers)
	classifySpan.End()
	rankSpan.End()
	res.TRank = time.Since(t2)
	return nil
}

// RunCluster is a convenience wrapper scanning a simulated cluster's
// images in canonical order.
func RunCluster(c *lustre.Cluster, opt Options) (*Result, error) {
	return Run(ClusterImages(c), opt)
}

// ClusterImages returns a cluster's images in canonical order (MDTs
// first by index, then OSTs by index).
func ClusterImages(c *lustre.Cluster) []*ldiskfs.Image {
	var images []*ldiskfs.Image
	for _, mdt := range c.MDTs {
		images = append(images, mdt.Img)
	}
	for _, ost := range c.OSTs {
		images = append(images, ost.Img)
	}
	return images
}

// streamInProcess runs every image's scanner concurrently, each
// streaming its chunks straight into the shared sink (Builder.Emit is
// thread-safe, so chunk interleaving across servers is harmless). Each
// scanner also keeps a per-server registry — the same set of
// instruments the TCP path ships home as a telemetry trailer — so the
// cluster manifest has per-server sections on both paths.
func streamInProcess(ctx context.Context, images []*ldiskfs.Image, sink scanner.Sink, opt Options, obs *runObs) ([]*wire.Telemetry, error) {
	errs := make([]error, len(images))
	ships := make([]*wire.Telemetry, len(images))
	var wg sync.WaitGroup
	for i, img := range images {
		wg.Add(1)
		go func(i int, img *ldiskfs.Image) {
			defer wg.Done()
			label := img.Label()
			srvReg := telemetry.NewRegistry()
			srvIns := scanner.NewInstr(srvReg)
			srvJournal := telemetry.NewJournal(0)
			srvJournal.SetServer(label)
			srvIns.AttachJournal(srvJournal, chunkEventEvery)
			srvJournal.Record("scanner", "scan-start")
			_, sp := telemetry.StartSpan(ctx, "scan:"+label)
			defer sp.End()
			errs[i] = scanner.ScanImageToSinkInstr(ctx, img, opt.Workers, opt.ChunkSize, sink, obs.scan, srvIns)
			if errs[i] == nil {
				sp.End()
				node := sp.Node()
				ships[i] = &wire.Telemetry{Server: label, Snapshot: srvReg.Snapshot().Labeled(label), Span: &node}
				srvJournal.Record("scanner", "scan-done")
			} else {
				obs.journal.Record("checker", "scan-failed",
					"server", label, "err", errs[i].Error())
			}
			obs.addJournal(srvJournal.Snapshot())
		}(i, img)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ships, nil
}

// streamOverTCP reproduces the deployment data path: every scanner
// opens one chunk stream to the MDS-side collector and ships chunks as
// it produces them, so the aggregator consumes while the scanners are
// still sweeping — transfer no longer waits for a whole encoded
// partial.
//
// Failure handling: dials are retried per the wire default; opt.ScanTimeout
// bounds the whole stage; when a stream is lost the degraded collector
// keeps the surviving streams flowing, while strict mode aborts the
// siblings and fails the run. The transfer counters land in res.Net.
//
// Each scanner keeps a per-server registry (its own scan counters and
// wire metrics) and ships it to the collector as a telemetry trailer
// after its final chunk — best-effort when the scan fails, since its
// connection may already be gone. The collected trailers become the
// cluster manifest's per-server sections; a crashed server simply has
// no trailer and turns into a missing-telemetry entry.
func streamOverTCP(ctx context.Context, images []*ldiskfs.Image, builder *agg.Builder, opt Options, res *Result, obs *runObs) ([]*wire.Telemetry, error) {
	col, addr, err := wire.NewCollector()
	if err != nil {
		return nil, err
	}
	defer col.Close()
	col.Observe(obs.wireM)
	if opt.ScanTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.ScanTimeout)
		defer cancel()
	}
	errs := make([]error, len(images))
	srvJournals := make([]*telemetry.Journal, len(images))
	var wg sync.WaitGroup
	for i, img := range images {
		wg.Add(1)
		go func(i int, img *ldiskfs.Image) {
			defer wg.Done()
			label := img.Label()
			srvReg := telemetry.NewRegistry()
			srvIns := scanner.NewInstr(srvReg)
			srvWire := wire.NewMetrics(srvReg)
			srvJournal := telemetry.NewJournal(0)
			srvJournal.SetServer(label)
			srvJournals[i] = srvJournal
			srvIns.AttachJournal(srvJournal, chunkEventEvery)
			_, sp := telemetry.StartSpan(ctx, "scan:"+label)
			defer sp.End()
			fault := opt.NetFaults[label]
			if fault != nil && fault.PreConnect() {
				errs[i] = fmt.Errorf("%w before connect (%s)", inject.ErrScannerCrash, label)
				obs.journal.Record("checker", "scan-failed",
					"server", label, "err", errs[i].Error())
				return
			}
			cs, err := wire.DialChunkStreamContext(ctx, addr, wire.DefaultRetryPolicy(), opt.OpTimeout, obs.wireM, srvWire)
			if err != nil {
				errs[i] = err
				obs.journal.Record("checker", "scan-failed",
					"server", label, "err", err.Error())
				return
			}
			defer cs.Close()
			if n := cs.DialRetries(); n > 0 {
				obs.journal.Record("wire", "dial-retry",
					"server", label, "retries", fmt.Sprintf("%d", n))
			}
			// The per-server journal rides home as a trailer frame right
			// behind the telemetry snapshot (wire.MsgJournal).
			cs.SetJournal(srvJournal)
			srvJournal.Record("scanner", "scan-start")
			// The trailer source runs right after the final chunk frame is
			// written — the server's instruments are final at that moment.
			cs.SetTelemetrySource(func() *wire.Telemetry {
				sp.End()
				node := sp.Node()
				return &wire.Telemetry{Server: label, Snapshot: srvReg.Snapshot().Labeled(label), Span: &node}
			})
			sink := scanner.Sink(cs)
			if fault != nil {
				sink = fault.WrapStream(ctx, cs)
			}
			errs[i] = scanner.ScanImageToSinkInstr(ctx, img, opt.Workers, opt.ChunkSize, sink, obs.scan, srvIns)
			if errs[i] != nil {
				obs.journal.Record("checker", "scan-failed",
					"server", label, "err", errs[i].Error())
				// Best-effort partial telemetry and journal for the failure
				// path; the connection is usually gone, and that is fine —
				// the server then shows up as a missing-telemetry entry.
				_ = cs.SendTelemetry(nil)
				_ = cs.SendJournal()
			} else {
				srvJournal.Record("scanner", "scan-done")
			}
		}(i, img)
	}
	// A scanner that fails before or during its stream leaves the
	// collector short; close the listener once all senders finish so
	// the accept wait cannot block until the deadline for a connection
	// that will never come. (A *stalled* sender keeps wg held — there
	// the ScanTimeout deadline does the unblocking.)
	go func() {
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				col.Close()
				return
			}
		}
	}()
	colRes, collectErr := col.CollectChunksContext(ctx, len(images), opt.AllowDegraded, builder.Emit)
	wg.Wait()
	// Per-server flight-recorder sections: prefer the wire-shipped
	// trailer (what actually crossed the network), and fall back to the
	// sender-side journal for servers whose trailer never arrived — a
	// crashed stream's event trail is the evidence frtrace renders.
	collected := make(map[string]bool, len(colRes.Journals))
	for _, js := range colRes.Journals {
		obs.addJournal(js)
		collected[js.Server] = true
	}
	for i, j := range srvJournals {
		if j != nil && !collected[images[i].Label()] {
			obs.addJournal(j.Snapshot())
		}
	}
	// NetStats is a per-run view over the registry-backed wire counters;
	// the error descriptions still come from the collector, which is the
	// only place that knows why a stream died.
	res.Net = obs.netStats()
	res.Net.StreamErrors = colRes.Errors
	if opt.AllowDegraded {
		// Sender-side failures are part of the degraded story, not
		// fatal; record them for the report.
		for i, err := range errs {
			if err != nil {
				res.Net.StreamErrors = append(res.Net.StreamErrors,
					fmt.Sprintf("scanner %s: %v", images[i].Label(), err))
			}
		}
		return colRes.Telemetry, nil
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return colRes.Telemetry, collectErr
}

// sortFindings orders findings deterministically for stable output.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Kind != fs[j].Kind {
			return fs[i].Kind < fs[j].Kind
		}
		if fs[i].FID != fs[j].FID {
			return fs[i].FID.Less(fs[j].FID)
		}
		return fs[i].Field < fs[j].Field
	})
}
