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
	// Workers bounds the parallelism of every stage: scanners, merge,
	// graph build and the rank kernel (<= 0 = GOMAXPROCS).
	Workers int
	// Core configures the FaultyRank iteration and detection. A check
	// does not read Core.Workers. Unset, it is core.DefaultOptions
	// (WithDefaults).
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

	// ScanTimeout bounds the whole scan stage, on either transport (0 =
	// no deadline). When it expires, the scanners stop at their next
	// block group, stalled connections are cut, and — with AllowDegraded
	// — the run completes from the servers that finished.
	ScanTimeout time.Duration
	// AllowDegraded lets the run complete when servers are lost (crash,
	// stall, corrupt frame, missed deadline): the unified graph is built
	// from the servers that finished and Result.Coverage names the
	// missing ones. False (the default) keeps the strict behaviour — the
	// first server failure aborts the run.
	AllowDegraded bool
	// NetFaults injects a network fault into the named servers' scans —
	// the test/bench hook for exercising the failure model (nil = no
	// faults). A crash before connect fires on either transport; the
	// mid-stream faults act on a chunk stream, so only over TCP.
	NetFaults map[string]*inject.NetFault

	// RankWorkers is ignored: the rank runs on the single kernel.
	//
	// Deprecated: the partitioned rank execution it sized is gone. It
	// was bit-identical to the single kernel, so ignoring it changes no
	// rank and no finding.
	RankWorkers int

	// RankIncremental runs the frontier-based incremental kernel
	// (core.RunIncremental) instead of full sweeps, seeded from
	// RankFrontier — the online tracker's warm path, where the work
	// should scale with the delta, not the graph. Without warm-start
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

// NetStats aggregates the wire-level counters of one scan stage (zero
// in process, where no frame moves) and its stream failures.
type NetStats struct {
	// Frames and Bytes count the chunk frames the collector decoded.
	Frames, Bytes int64
	// DialRetries counts sender-side redials across all scanners.
	DialRetries int64
	// StreamErrors describes each failed or aborted stream, the
	// collector's accounts first, then each server failure a degraded
	// run survived ("scanner <label>: <err>").
	StreamErrors []string
}

// DefaultOptions mirrors the paper's configuration.
func DefaultOptions() Options {
	return Options{Core: core.DefaultOptions()}
}

// WithDefaults returns o with an unset Core replaced by the paper's
// constants (core.DefaultOptions); every other field — Workers,
// SplitProperties, the transport — is kept. Core is unset when its
// MaxIterations is zero, which no usable configuration has. This is the
// one place a check decides what an unset Core means: Run and
// AnalyzeUnified apply it, and so does the online tracker, which edits
// Core before each of its analyses.
func (o Options) WithDefaults() Options {
	if o.Core.MaxIterations == 0 {
		o.Core = core.DefaultOptions()
	}
	return o
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
	// Net carries the scan stage's transfer counters (zero in process)
	// and its stream failures.
	Net NetStats
	// Scan carries the scanner-side telemetry counters (both paths).
	Scan ScanStats
	// Phases is the run's phase-timing tree: run → scan (one child per
	// server) → aggregate (merge, build) → rank (iterate, classify).
	Phases *telemetry.SpanNode
	// Metrics is the deterministic end-of-run registry snapshot.
	Metrics telemetry.Snapshot
	// Cluster is the cluster-scoped telemetry view: one section per
	// server, merged cluster totals, and the straggler analysis. Nil for
	// Analyze-only results (no scan stage ran).
	Cluster *ClusterManifest
	// Journal is the run's flight record: the coordinator's event
	// section first, then one section per server that recorded an
	// event, in canonical image order. Encode with
	// telemetry.EncodeJournal / WriteJournalFile and render with
	// cmd/frtrace.
	Journal []telemetry.JournalSnapshot

	// RankExec is always nil.
	//
	// Deprecated: it described the partitioned rank execution, which is
	// gone.
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
// in parallel) plus the CSR build. opt.ScanTimeout bounds the scan
// stage, and with opt.AllowDegraded a run that loses servers completes
// from the rest, naming the lost ones in Result.Coverage.
func Run(images []*ldiskfs.Image, opt Options) (*Result, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("checker: no images")
	}
	res := &Result{Coverage: Coverage{Total: len(images)}}
	obs := newRunObs(opt.Metrics, opt.Journal)
	ctx, root := telemetry.StartSpan(context.Background(), "run")
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
	sections, err := scanStage(scanCtx, images, builder, opt, res, obs)
	scanSpan.End()
	if err != nil {
		return nil, err
	}
	res.TScan = time.Since(t0)
	res.Cluster = BuildClusterManifest(labels, sections)

	// ---- Stage 2: merge, then the shared tail --------------------------
	err = analyze(ctx, root, res, images, opt, obs, func(aggCtx context.Context) (*agg.Unified, error) {
		_, mergeSpan := telemetry.StartSpan(aggCtx, "merge")
		defer mergeSpan.End()
		if !opt.AllowDegraded {
			return builder.Finish(opt.Workers)
		}
		u, missing, err := builder.FinishCompleted(opt.Workers)
		res.Coverage.Missing = missing
		if len(missing) > 0 {
			obs.journal.Record("checker", "degraded",
				"missing", strings.Join(missing, ","))
		}
		return u, err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// AnalyzeUnified runs the post-merge stages — CSR build, ranking and
// classification — over an already-materialised unified graph. It is
// the online checker's per-check entry point: the incremental
// aggregator (agg.DeltaBuilder) maintains the Unified across checks, so
// neither scanning nor merging re-runs; what remains is exactly the
// work any check must do on the current graph. The graph covers every
// image, and Result.Coverage says so. No post-merge stage can fail, so
// the error is always nil.
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
	*res = Result{Coverage: Coverage{Total: len(images)}, Graph: res.Graph, Rank: res.Rank, reach: res.reach}
	obs := newRunObs(opt.Metrics, opt.Journal)
	ctx, root := telemetry.StartSpan(context.Background(), "analyze")
	return analyze(ctx, root, res, images, opt, obs, func(context.Context) (*agg.Unified, error) { return u, nil })
}

// analyze is the tail Run and AnalyzeUnified share: under the aggregate
// span (T_graph) it takes the unified graph from unify and builds the
// CSR, into res.Graph's storage when it has one; then it ranks and
// classifies (T_FR) and lands the run's observability fields. An unset
// opt.Core means the paper's defaults (Options.WithDefaults).
func analyze(ctx context.Context, root *telemetry.Span, res *Result, images []*ldiskfs.Image, opt Options, obs *runObs, unify func(aggCtx context.Context) (*agg.Unified, error)) error {
	opt = opt.WithDefaults()
	opt.Core.Workers = opt.Workers
	t1 := time.Now()
	aggCtx, aggSpan := telemetry.StartSpan(ctx, "aggregate")
	u, err := unify(aggCtx)
	if err != nil {
		aggSpan.End()
		return err
	}
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

	t2 := time.Now()
	rankCtx, rankSpan := telemetry.StartSpan(ctx, "rank")
	_, iterSpan := telemetry.StartSpan(rankCtx, "iterate")
	runRank(res, opt, obs)
	iterSpan.End()
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
	obs.finish(res, root)
	return nil
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

// scanStage runs one scanner per server image, concurrently, each
// streaming its chunks toward builder: into it directly in process, or
// over TCP on its own chunk stream to a collector that feeds it as
// frames arrive, so the aggregator consumes while the scanners sweep.
//
// Both transports share one failure model. opt.ScanTimeout bounds the
// stage. A failed server — crashed before its scan, a scan or stream
// error, the deadline — is recorded in the coordinator journal; strict
// mode returns the first failure in server order, while AllowDegraded
// lists it in res.Net.StreamErrors and completes, the merge then keeping
// only the servers that finished. Every server's journal lane is kept;
// the returned sections, one per server whose scan succeeded, become the
// cluster manifest's.
func scanStage(ctx context.Context, images []*ldiskfs.Image, builder *agg.Builder, opt Options, res *Result, obs *runObs) ([]ServerTelemetry, error) {
	if opt.ScanTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.ScanTimeout)
		defer cancel()
	}
	var col *wire.Collector
	var addr string
	if opt.UseTCP {
		var err error
		if col, addr, err = wire.NewCollector(); err != nil {
			return nil, err
		}
		defer col.Close()
		col.Observe(obs.wireM)
	}
	scans := make([]serverScan, len(images))
	var wg sync.WaitGroup
	for i, img := range images {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scans[i].run(ctx, img, builder, addr, opt, obs)
		}()
	}
	colRes, collectErr := &wire.CollectResult{}, error(nil)
	if col != nil {
		// Close the listener once every sender is done: one that failed
		// before or during its stream leaves the collector short, and the
		// accept wait must not block until the deadline for a connection
		// that will never come. (When all succeeded, every connection was
		// accepted already. A *stalled* sender keeps wg held — there the
		// ScanTimeout deadline does the unblocking.)
		go func() {
			wg.Wait()
			col.Close()
		}()
		colRes, collectErr = col.CollectChunksContext(ctx, len(images), opt.AllowDegraded, builder.Emit)
	}
	wg.Wait()
	res.Net = obs.netStats()
	// The collector is the only place that knows why a stream died.
	res.Net.StreamErrors = colRes.Errors
	var sections []ServerTelemetry
	for i := range scans {
		s := &scans[i]
		obs.addJournal(s.journal.Snapshot())
		if s.section != nil {
			sections = append(sections, *s.section)
		}
		if s.err != nil {
			if !opt.AllowDegraded {
				return nil, s.err
			}
			res.Net.StreamErrors = append(res.Net.StreamErrors, fmt.Sprintf("scanner %s: %v", s.label, s.err))
		}
	}
	if opt.AllowDegraded {
		return sections, nil
	}
	return sections, collectErr
}

// serverScan is one server's part of the scan stage: its flight-recorder
// lane and how its scan ended.
type serverScan struct {
	label   string
	journal *telemetry.Journal
	// section is the server's manifest section, set only when its scan
	// succeeded.
	section *ServerTelemetry
	err     error
}

// run is the per-server driver both transports share: its own registry,
// scanner instruments, journal lane and scan:<label> span, the
// scan-start, scan-done and scan-failed events, one
// ScanImageToSinkInstr and, when it succeeds, the manifest section. The
// transport chooses only the sink — builder in process, a chunk stream
// to the collector at addr over TCP, wrapped by the server's network
// fault when one is injected. The span times the scan: in process it
// ends when the builder has taken the final chunk, over TCP when the
// final frame is written, not when the collector acknowledges it, so a
// collector busy with other streams does not make this server look
// like the straggler.
func (s *serverScan) run(ctx context.Context, img *ldiskfs.Image, builder *agg.Builder, addr string, opt Options, obs *runObs) {
	s.label = img.Label()
	reg := telemetry.NewRegistry()
	ins := scanner.NewInstr(reg)
	s.journal = telemetry.NewJournal(0)
	s.journal.SetServer(s.label)
	ins.AttachJournal(s.journal, chunkEventEvery)
	_, sp := telemetry.StartSpan(ctx, "scan:"+s.label)
	defer sp.End()
	fail := func(err error) {
		s.err = err
		obs.journal.Record("checker", "scan-failed", "server", s.label, "err", err.Error())
	}

	fault := opt.NetFaults[s.label]
	if fault != nil && fault.PreConnect() {
		fail(fmt.Errorf("%w before connect (%s)", inject.ErrScannerCrash, s.label))
		return
	}
	var sink scanner.Sink = builder
	var cs *wire.ChunkStream
	if opt.UseTCP {
		var err error
		if cs, err = wire.DialChunkStreamContext(ctx, addr, wire.DefaultRetryPolicy(), 0, obs.wireM, wire.NewMetrics(reg)); err != nil {
			fail(err)
			return
		}
		defer cs.Close()
		if n := cs.DialRetries(); n > 0 {
			obs.journal.Record("wire", "dial-retry",
				"server", s.label, "retries", fmt.Sprintf("%d", n))
		}
		cs.SetJournal(s.journal)
		cs.OnFinalWritten(sp.End)
		sink = cs
		if fault != nil {
			sink = fault.WrapStream(ctx, cs)
		}
	}
	s.journal.Record("scanner", "scan-start")
	if err := scanner.ScanImageToSinkInstr(ctx, img, opt.Workers, opt.ChunkSize, sink, obs.scan, ins); err != nil {
		fail(err)
		return
	}
	s.journal.Record("scanner", "scan-done")
	sp.End()
	node := sp.Node()
	s.section = &ServerTelemetry{Server: s.label, Snapshot: reg.Snapshot().Labeled(s.label), Span: &node}
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
