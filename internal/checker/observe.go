package checker

import (
	"faultyrank/internal/agg"
	"faultyrank/internal/scanner"
	"faultyrank/internal/telemetry"
	"faultyrank/internal/wire"
)

// chunkEventEvery is the scanner chunk-lifecycle sampling stride: one
// journal event per this many released chunks keeps the flight recorder
// legible (and the hot path within the ingest overhead budget) while
// still timestamping the stream's progress.
const chunkEventEvery = 64

// ScanStats aggregates the scanner-side telemetry counters of one run —
// what the sweep actually touched, as opposed to what survived into the
// unified graph. Filled from registry counter deltas, so it stays
// per-run even when several runs share one Options.Metrics registry.
type ScanStats struct {
	InodesScanned int64
	DirentsRead   int64
	EdgesEmitted  int64
	ParseIssues   int64
	Chunks        int64
}

// runObs bundles one run's instruments. Every run gets one: when
// Options.Metrics is nil a private registry is created, so Result.Metrics,
// ScanStats and the report counters are always populated; a caller-provided
// registry additionally exposes the same instruments on -metrics-addr.
// Counter base values are captured at construction, so per-run views
// (NetStats, ScanStats) are deltas and shared registries stay correct.
type runObs struct {
	reg   *telemetry.Registry
	scan  *scanner.Instr
	wireM *wire.Metrics
	aggM  *agg.Metrics
	base  map[*telemetry.Counter]int64

	// journal is the run's coordinator-lane flight recorder (the caller's
	// Options.Journal, or a private one — always non-nil so event sites
	// need no guards). srvJournals collects the per-server lanes, which
	// the scan stage files in canonical image order once its scanners
	// stop.
	journal     *telemetry.Journal
	srvJournals []telemetry.JournalSnapshot
}

func newRunObs(reg *telemetry.Registry, j *telemetry.Journal) *runObs {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if j == nil {
		j = telemetry.NewJournal(0)
		j.SetServer("coordinator")
	}
	o := &runObs{
		reg:   reg,
		scan:  scanner.NewInstr(reg),
		wireM: wire.NewMetrics(reg),
		aggM:  agg.NewMetrics(reg),
		base:  make(map[*telemetry.Counter]int64),

		journal: j,
	}
	o.wireM.Journal = j
	o.aggM.Journal = j
	o.scan.AttachJournal(j, chunkEventEvery)
	for _, c := range []*telemetry.Counter{
		o.scan.InodesScanned, o.scan.DirentsRead, o.scan.EdgesEmitted,
		o.scan.ParseIssues, o.scan.ChunksReleased,
		o.wireM.FramesRecv, o.wireM.BytesRecv, o.wireM.DialRetries,
		o.wireM.StreamErrors,
	} {
		o.base[c] = c.Value()
	}
	return o
}

// delta returns how much c grew since this run started.
func (o *runObs) delta(c *telemetry.Counter) int64 { return c.Value() - o.base[c] }

// addJournal files one server's flight-recorder section. Unlabeled or
// empty sections are dropped — an empty lane renders as noise.
func (o *runObs) addJournal(s telemetry.JournalSnapshot) {
	if s.Server == "" || len(s.Events) == 0 {
		return
	}
	o.srvJournals = append(o.srvJournals, s)
}

// journals returns the run's complete flight record: the coordinator
// section first, then the per-server sections in the order filed.
func (o *runObs) journals() []telemetry.JournalSnapshot {
	return append([]telemetry.JournalSnapshot{o.journal.Snapshot()}, o.srvJournals...)
}

// scanStats snapshots the scanner counters as per-run deltas.
func (o *runObs) scanStats() ScanStats {
	return ScanStats{
		InodesScanned: o.delta(o.scan.InodesScanned),
		DirentsRead:   o.delta(o.scan.DirentsRead),
		EdgesEmitted:  o.delta(o.scan.EdgesEmitted),
		ParseIssues:   o.delta(o.scan.ParseIssues),
		Chunks:        o.delta(o.scan.ChunksReleased),
	}
}

// netStats snapshots the wire counters as per-run deltas. StreamErrors
// descriptions are appended by the caller — the registry only counts.
func (o *runObs) netStats() NetStats {
	return NetStats{
		Frames:      o.delta(o.wireM.FramesRecv),
		Bytes:       o.delta(o.wireM.BytesRecv),
		DialRetries: o.delta(o.wireM.DialRetries),
	}
}

// finish closes the root span and lands the observability fields on res.
func (o *runObs) finish(res *Result, root *telemetry.Span) {
	root.End()
	node := root.Node()
	res.Phases = &node
	res.Scan = o.scanStats()
	res.Metrics = o.reg.Snapshot()
	res.Journal = o.journals()
}
