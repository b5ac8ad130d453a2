package health

import (
	"context"
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"faultyrank/internal/checker"
	"faultyrank/internal/imgdir"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/online"
	"faultyrank/internal/telemetry"
)

// defaultHistory is the per-cluster round-history ring size when the
// config does not set one.
const defaultHistory = 32

// DaemonOptions shapes a daemon independent of which clusters it
// tracks.
type DaemonOptions struct {
	// Interval between watch rounds per cluster (<= 0 = Tracker.Watch's
	// one-second default).
	Interval time.Duration
	// Workers bounds how many clusters run a check round concurrently on
	// the shared pool (<= 0 = min(number of clusters, GOMAXPROCS)).
	Workers int
	// History is the round-history ring size (<= 0 = defaultHistory).
	History int
	// Logf, when non-nil, receives one line per completed or failed
	// round (the daemon's operational log).
	Logf func(format string, args ...any)
}

// defaultStaleAfter floors the staleness window so short watch
// intervals do not flap a busy cluster to "stale" between rounds.
const defaultStaleAfter = 30 * time.Second

// staleAfter is how long a cluster may go without settling a round
// before its status reads "stale" instead of whatever its last findings
// said: ten intervals, floor defaultStaleAfter. A wedged tracker stops
// completing rounds but keeps its old counts; without an age check it
// would look healthy forever.
func (d *Daemon) staleAfter() time.Duration {
	iv := d.opt.Interval
	if iv <= 0 {
		iv = time.Second
	}
	if w := 10 * iv; w > defaultStaleAfter {
		return w
	}
	return defaultStaleAfter
}

// Daemon hosts one online.Tracker per cluster, runs their watch loops
// concurrently on a shared bounded pool, grades every finding through
// the rules engine, and serves the results (Handler). Clusters are
// added before Run; the report surface is safe for concurrent readers
// while the watchers run.
type Daemon struct {
	rules   *RuleSet
	opt     DaemonOptions
	gate    chan struct{} // shared pool: one token per concurrent round
	members map[string]*member
	order   []string // member names in add order (the fleet listing order)
	running bool
}

// member is one tracked cluster: its tracker, watch plumbing, and the
// report state the HTTP layer reads. The watch goroutine is the only
// writer of the mutable fields; mu lets API readers snapshot them
// mid-flight.
type member struct {
	name        string
	tracker     *online.Tracker
	quiesce     sync.Locker
	stateDir    string
	rescanEvery int
	rounds      int // watch rounds configured (0 = until ctx)

	reg       *telemetry.Registry
	mRounds   *telemetry.Counter // health_rounds_total
	mFailures *telemetry.Counter // health_round_failures_total
	mCritical *telemetry.Gauge   // health_findings_critical
	mWarning  *telemetry.Gauge   // health_findings_warning
	mInfo     *telemetry.Gauge   // health_findings_info
	mRefresh  *telemetry.Gauge   // health_last_round_refreshed_inodes
	mChecks   *telemetry.Gauge   // health_tracker_checks
	mRescan   *telemetry.Gauge   // health_tracker_inodes_rescanned
	mScrubs   *telemetry.Gauge   // health_tracker_rescans

	// journal is the cluster's flight recorder: the tracker's checker
	// and online events land here (Options.Journal), joined by the
	// daemon's round outcomes and grading decisions. Served on the
	// journal API endpoint and dumped to the state dir when a round
	// fails.
	journal *telemetry.Journal

	mu        sync.RWMutex
	completed int
	failures  int
	lastErr   string
	findings  []GradedFinding
	counts    SeverityCounts
	history   []RoundSummary
	// lastRes is the last settled round's result. Its findings are its
	// own, but its Unified, Graph and Rank are the tracker's working set,
	// which the next round rewrites (online.CheckResult): only a reader
	// that runs while no round does may touch them. Everything the report
	// serves is copied out at settle time instead (findings, counts,
	// history).
	lastRes     *online.CheckResult
	lastSettled time.Time
}

// ClusterSpec describes one cluster to track.
type ClusterSpec struct {
	// Name is the cluster's identity in the API and metric labels (see
	// ClusterConfig.Name for the charset).
	Name   string
	Images []*ldiskfs.Image
	// Options configures the cluster's checks, passed to the tracker as
	// given: an unset Core means the paper's defaults, and every other
	// field is kept (checker.Options.WithDefaults).
	Options checker.Options
	// StateDir, when non-empty, holds the durable tracker snapshot: the
	// daemon resumes from it when present and saves after every round.
	StateDir string
	// RescanEvery > 0 forces a full scrub every N completed rounds.
	RescanEvery int
	// Quiesce, when non-nil, is held while a round reads the images —
	// in-process mutators (the soak harness) take the same lock.
	Quiesce sync.Locker
	// Rounds bounds this cluster's watch loop (0 = until the run
	// context is cancelled) — the soak harness's stopping rule.
	Rounds int
}

// NewDaemon builds an empty daemon; add clusters, then Run.
func NewDaemon(rules *RuleSet, opt DaemonOptions) (*Daemon, error) {
	if rules == nil {
		rules = DefaultRules()
	}
	if err := rules.Validate(); err != nil {
		return nil, err
	}
	if opt.History <= 0 {
		opt.History = defaultHistory
	}
	return &Daemon{
		rules:   rules,
		opt:     opt,
		members: make(map[string]*member),
	}, nil
}

// NewDaemonFromConfig assembles a daemon from a config file's worth of
// state: rules loaded (or the built-in policy), every cluster's images
// loaded from its directory, tracker state resumed where a compatible
// snapshot exists.
func NewDaemonFromConfig(cfg *Config) (*Daemon, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rules := DefaultRules()
	if cfg.Rules != "" {
		var err error
		if rules, err = LoadRules(cfg.Rules); err != nil {
			return nil, err
		}
	}
	d, err := NewDaemon(rules, DaemonOptions{
		Interval: cfg.Interval.Duration,
		Workers:  cfg.Workers,
		History:  cfg.History,
		Logf:     log.Printf,
	})
	if err != nil {
		return nil, err
	}
	for _, cl := range cfg.Clusters {
		images, err := imgdir.Load(cl.Dir)
		if err != nil {
			return nil, fmt.Errorf("health: cluster %q: %w", cl.Name, err)
		}
		if err := d.AddCluster(ClusterSpec{
			Name:        cl.Name,
			Images:      images,
			StateDir:    cl.State,
			RescanEvery: cl.RescanEvery,
		}); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// AddCluster registers one cluster: its tracker is constructed now
// (resuming from StateDir's snapshot when one exists and matches this
// build), so a daemon that starts Run has already paid every cluster's
// initial scan.
func (d *Daemon) AddCluster(spec ClusterSpec) error {
	if d.running {
		return fmt.Errorf("health: AddCluster after Run")
	}
	if !validName(spec.Name) {
		return fmt.Errorf("health: cluster name %q (want non-empty [a-zA-Z0-9._-])", spec.Name)
	}
	if _, dup := d.members[spec.Name]; dup {
		return fmt.Errorf("health: duplicate cluster %q", spec.Name)
	}
	opt := spec.Options
	reg := telemetry.NewRegistry()
	opt.Metrics = reg
	jr := telemetry.NewJournal(0)
	jr.SetServer(spec.Name)
	opt.Journal = jr

	tr, err := online.Open(spec.StateDir, spec.Images, opt, func(format string, args ...any) {
		d.logf("cluster %s: %s", spec.Name, fmt.Sprintf(format, args...))
	})
	if err != nil {
		return fmt.Errorf("health: cluster %q: %w", spec.Name, err)
	}
	m := &member{
		name:        spec.Name,
		tracker:     tr,
		quiesce:     spec.Quiesce,
		stateDir:    spec.StateDir,
		rescanEvery: spec.RescanEvery,
		rounds:      spec.Rounds,
		reg:         reg,
		mRounds:     reg.Counter("health_rounds_total"),
		mFailures:   reg.Counter("health_round_failures_total"),
		mCritical:   reg.Gauge("health_findings_critical"),
		mWarning:    reg.Gauge("health_findings_warning"),
		mInfo:       reg.Gauge("health_findings_info"),
		mRefresh:    reg.Gauge("health_last_round_refreshed_inodes"),
		mChecks:     reg.Gauge("health_tracker_checks"),
		mRescan:     reg.Gauge("health_tracker_inodes_rescanned"),
		mScrubs:     reg.Gauge("health_tracker_rescans"),
		journal:     jr,
	}
	d.members[spec.Name] = m
	d.order = append(d.order, spec.Name)
	return nil
}

func (d *Daemon) logf(format string, args ...any) {
	if d.opt.Logf != nil {
		d.opt.Logf(format, args...)
	}
}

// BoundRounds caps every cluster's watch loop at n rounds — how a
// config-driven run (`frhealthd -rounds N`) becomes a bounded smoke
// test instead of a daemon. Call before Run.
func (d *Daemon) BoundRounds(n int) {
	for _, m := range d.members {
		m.rounds = n
	}
}

// Tracker exposes a cluster's tracker (the soak harness's hook for
// fault injection and scrub forcing); nil for an unknown name.
func (d *Daemon) Tracker(name string) *online.Tracker {
	if m := d.members[name]; m != nil {
		return m.tracker
	}
	return nil
}

// Rules returns the daemon's grading policy.
func (d *Daemon) Rules() *RuleSet { return d.rules }

// Run watches every cluster until ctx is cancelled (or each bounded
// member finishes its rounds), bounding concurrent check rounds by the
// shared worker pool. It returns nil on a clean shutdown (context
// cancellation included) and the joined errors of any watchers that
// failed outright.
func (d *Daemon) Run(ctx context.Context) error {
	if len(d.members) == 0 {
		return fmt.Errorf("health: no clusters to run")
	}
	d.running = true
	workers := d.opt.Workers
	if workers <= 0 {
		workers = min(len(d.members), runtime.GOMAXPROCS(0))
	}
	d.gate = make(chan struct{}, workers)

	errs := make([]error, len(d.order))
	var wg sync.WaitGroup
	for i, name := range d.order {
		m := d.members[name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = d.watch(ctx, m)
		}()
	}
	wg.Wait()
	var bad []error
	for i, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			bad = append(bad, fmt.Errorf("cluster %s: %w", d.order[i], err))
		}
	}
	return errors.Join(bad...)
}

// watch is one member's loop: Tracker.Watch with the shared gate, the
// member's quiesce lock, and round completion/failure routed into the
// report state. Round errors do not stop the watch — the feed the
// failed server kept intact is retried next round — so the only exits
// are context cancellation, a bounded member finishing, or a
// non-retryable watch failure.
func (d *Daemon) watch(ctx context.Context, m *member) error {
	return m.tracker.Watch(ctx, online.WatchOptions{
		Interval: d.opt.Interval,
		Rounds:   m.rounds,
		Quiesce:  m.quiesce,
		Gate: func(ctx context.Context) (func(), error) {
			select {
			case d.gate <- struct{}{}:
				return func() { <-d.gate }, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
		OnRound: func(round int, res *online.CheckResult) {
			d.completeRound(m, round, res)
		},
		OnError: func(round int, err error) error {
			d.failRound(m, round, err)
			return nil
		},
	})
}

// completeRound folds one successful check into the member's report
// state: grade the findings, refresh the gauges, append to the history
// ring, persist the tracker snapshot, and schedule the periodic scrub.
func (d *Daemon) completeRound(m *member, round int, res *online.CheckResult) {
	graded := gradeFindings(d.rules, res.Findings)
	counts := countSeverities(graded)

	m.mRounds.Inc()
	m.mCritical.Set(int64(counts.Critical))
	m.mWarning.Set(int64(counts.Warning))
	m.mInfo.Set(int64(counts.Info))
	m.mRefresh.Set(int64(res.InodesRefreshed))
	st := m.tracker.Stats()
	m.mChecks.Set(st.Checks)
	m.mRescan.Set(st.InodesRescanned)
	m.mScrubs.Set(st.Rescans)

	m.journal.Record("health", "round-settled",
		"round", fmt.Sprintf("%d", round),
		"refreshed", fmt.Sprintf("%d", res.InodesRefreshed),
		"critical", fmt.Sprintf("%d", counts.Critical),
		"warning", fmt.Sprintf("%d", counts.Warning),
		"info", fmt.Sprintf("%d", counts.Info))
	for _, g := range graded {
		if g.Severity == SevInfo {
			continue
		}
		m.journal.Record("health", "grading",
			"fid", g.FID, "kind", g.Kind,
			"rule", g.Rule, "severity", g.Severity.String())
	}

	m.mu.Lock()
	m.completed++
	m.lastErr = ""
	m.findings = graded
	m.counts = counts
	m.lastRes = res
	m.lastSettled = time.Now()
	m.pushHistory(RoundSummary{
		Round:      round,
		Refreshed:  res.InodesRefreshed,
		Findings:   counts,
		Warm:       res.Warm,
		Iterations: res.Rank.Iterations,
	}, d.opt.History)
	completed := m.completed
	m.mu.Unlock()

	if m.stateDir != "" {
		if err := m.tracker.SaveState(m.stateDir); err != nil {
			d.logf("cluster %s: save state: %v", m.name, err)
		}
	}
	if counts.Total() > 0 {
		d.logf("cluster %s round %d: %d finding(s) — %d critical, %d warning, %d info",
			m.name, round, counts.Total(), counts.Critical, counts.Warning, counts.Info)
	}
	// The periodic scrub runs here, between rounds, under the same
	// quiesce lock a check holds: silent corruption that bypassed the
	// change feed is picked up by the next round's check.
	if m.rescanEvery > 0 && completed%m.rescanEvery == 0 {
		if err := d.rescanQuiesced(m); err != nil {
			d.failRound(m, round, fmt.Errorf("rescan: %w", err))
		}
	}
}

func (d *Daemon) rescanQuiesced(m *member) error {
	if m.quiesce != nil {
		m.quiesce.Lock()
		defer m.quiesce.Unlock()
	}
	m.journal.Record("health", "scrub")
	return m.tracker.Rescan()
}

// failRound records a failed round. The tracker left the failing feed
// intact, so the next round retries the lost work; the report keeps
// the error until a round completes cleanly.
func (d *Daemon) failRound(m *member, round int, err error) {
	m.mFailures.Inc()
	m.journal.Record("health", "round-failed",
		"round", fmt.Sprintf("%d", round), "err", err.Error())
	m.mu.Lock()
	m.failures++
	m.lastErr = err.Error()
	m.pushHistory(RoundSummary{Round: round, Err: err.Error()}, d.opt.History)
	m.mu.Unlock()
	d.logf("cluster %s round %d failed: %v", m.name, round, err)
	// Dump the flight record next to the tracker snapshot: the failed
	// round's event trail is exactly what frtrace renders when someone
	// asks why the cluster is unhealthy.
	if m.stateDir != "" {
		path := filepath.Join(m.stateDir, journalDumpName)
		if werr := telemetry.WriteJournalFile(path, m.journalSections()); werr != nil {
			d.logf("cluster %s: journal dump: %v", m.name, werr)
		} else {
			d.logf("cluster %s: journal dumped to %s", m.name, path)
		}
	}
}

// journalDumpName is the flight-record file a failed round leaves in
// the cluster's state directory (FRJR format; render with frtrace).
const journalDumpName = "journal.frjr"

// journalSections snapshots the member's flight record.
func (m *member) journalSections() []telemetry.JournalSnapshot {
	return []telemetry.JournalSnapshot{m.journal.Snapshot()}
}

// Journal returns a cluster's flight-record sections; false for an
// unknown name.
func (d *Daemon) Journal(name string) ([]telemetry.JournalSnapshot, bool) {
	m := d.members[name]
	if m == nil {
		return nil, false
	}
	return m.journalSections(), true
}

// pushHistory appends to the ring; callers hold m.mu.
func (m *member) pushHistory(rs RoundSummary, limit int) {
	m.history = append(m.history, rs)
	if len(m.history) > limit {
		m.history = m.history[len(m.history)-limit:]
	}
}

// Clusters lists every cluster's summary row in add order.
func (d *Daemon) Clusters() []ClusterSummary {
	out := make([]ClusterSummary, 0, len(d.order))
	stale := d.staleAfter()
	for _, name := range d.order {
		out = append(out, d.members[name].summary(stale))
	}
	return out
}

func (m *member) summary(staleAfter time.Duration) ClusterSummary {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := ClusterSummary{
		Name:     m.name,
		Rounds:   m.completed,
		Failures: m.failures,
		Findings: m.counts,
	}
	switch {
	case m.completed == 0:
		s.Status = "pending"
	default:
		age := time.Since(m.lastSettled)
		s.LastSettledAge = age.Seconds()
		if age > staleAfter {
			// No round has settled in a staleness window: the counts
			// below are from a round too old to trust, so the row must
			// not read as healthy.
			s.Status = "stale"
		} else {
			s.Status = m.counts.status()
		}
	}
	return s
}

// Report assembles one cluster's full report; false for an unknown
// name.
func (d *Daemon) Report(name string) (*Report, bool) {
	m := d.members[name]
	if m == nil {
		return nil, false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	r := &Report{
		Schema:       ReportSchema,
		Cluster:      m.name,
		RulesVersion: d.rules.Version,
		Rounds:       m.completed,
		Failures:     m.failures,
		LastError:    m.lastErr,
		Counts:       m.counts,
		Findings:     append([]GradedFinding{}, m.findings...),
		Stats:        m.tracker.Stats(),
		History:      append([]RoundSummary{}, m.history...),
	}
	if m.completed == 0 {
		r.Status = "pending"
	} else {
		r.Status = m.counts.status()
	}
	return r, true
}

// lastResult is the most recent completed round's check result (the
// soak harness reads it to drive repairs); nil before the first round.
// The soak harness calls it only between runs, while no round is in
// flight to rewrite the result's graph and ranks.
func (d *Daemon) lastResult(name string) *online.CheckResult {
	m := d.members[name]
	if m == nil {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.lastRes
}

// MetricsSnapshots gathers every cluster's registry snapshot, sorted by
// cluster name, for the labeled Prometheus exposition.
func (d *Daemon) MetricsSnapshots() []telemetry.LabeledSnapshot {
	names := append([]string(nil), d.order...)
	sort.Strings(names)
	out := make([]telemetry.LabeledSnapshot, 0, len(names))
	for _, name := range names {
		out = append(out, telemetry.LabeledSnapshot{
			Label:    name,
			Snapshot: d.members[name].reg.Snapshot(),
		})
	}
	return out
}
