package health

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faultyrank/internal/checker"
	"faultyrank/internal/imgdir"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

func testCluster(t testing.TB) *lustre.Cluster {
	t.Helper()
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 4, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.MkdirAll("/w")
	for i := 0; i < 8; i++ {
		if _, err := c.Create(fmt.Sprintf("/w/f%02d", i), 2*64<<10); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func testDaemon(t testing.TB, opt DaemonOptions, specs ...ClusterSpec) *Daemon {
	t.Helper()
	if opt.Interval == 0 {
		opt.Interval = time.Millisecond
	}
	d, err := NewDaemon(nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		if err := d.AddCluster(spec); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

// TestDaemonServesFleet is the end-to-end happy path: two clean
// clusters watched to completion, then every API surface read back
// over real HTTP.
func TestDaemonServesFleet(t *testing.T) {
	d := testDaemon(t, DaemonOptions{},
		ClusterSpec{Name: "alpha", Images: checker.ClusterImages(testCluster(t)), Rounds: 3},
		ClusterSpec{Name: "beta", Images: checker.ClusterImages(testCluster(t)), Rounds: 3},
	)
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	var hz struct {
		Status   string `json:"status"`
		Clusters int    `json:"clusters"`
	}
	if resp := getJSON(t, srv.URL+"/healthz", &hz); resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if hz.Status != "ok" || hz.Clusters != 2 {
		t.Fatalf("healthz %+v", hz)
	}

	var list []ClusterSummary
	getJSON(t, srv.URL+"/api/v1/clusters", &list)
	if len(list) != 2 || list[0].Name != "alpha" || list[1].Name != "beta" {
		t.Fatalf("clusters %+v", list)
	}
	for _, c := range list {
		if c.Status != "ok" || c.Rounds != 3 || c.Failures != 0 {
			t.Fatalf("cluster %+v", c)
		}
	}

	var rep Report
	getJSON(t, srv.URL+"/api/v1/clusters/beta/report", &rep)
	if rep.Schema != ReportSchema || rep.Cluster != "beta" || rep.Status != "ok" {
		t.Fatalf("report %+v", rep)
	}
	if rep.RulesVersion != DefaultRules().Version {
		t.Fatalf("rules version %d", rep.RulesVersion)
	}
	if rep.Rounds != 3 || len(rep.History) != 3 || rep.Stats.Checks != 3 {
		t.Fatalf("rounds %d, history %d, checks %d", rep.Rounds, len(rep.History), rep.Stats.Checks)
	}
	for i, h := range rep.History {
		if h.Round != i+1 || h.Err != "" {
			t.Fatalf("history[%d] = %+v", i, h)
		}
	}

	if resp := getJSON(t, srv.URL+"/api/v1/clusters/nope/report", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown cluster status %d", resp.StatusCode)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`health_rounds_total{cluster="alpha"} 3`,
		`health_rounds_total{cluster="beta"} 3`,
		`health_findings_critical{cluster="alpha"} 0`,
		`health_tracker_checks{cluster="beta"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
	// One TYPE line per metric across the whole multi-cluster exposition.
	if n := strings.Count(text, "# TYPE health_rounds_total counter"); n != 1 {
		t.Fatalf("%d TYPE lines for health_rounds_total", n)
	}
}

// TestDaemonGradesInjectedFault: a fault injected into a live cluster
// surfaces in the report with a severity, the rule that graded it, and
// a suggested action — the tentpole acceptance property in miniature.
func TestDaemonGradesInjectedFault(t *testing.T) {
	c := testCluster(t)
	d := testDaemon(t, DaemonOptions{},
		ClusterSpec{Name: "prod", Images: checker.ClusterImages(c), Rounds: 2})
	inj, err := inject.Inject(c, inject.MismatchFilterFID, "/w/f03")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	rep, ok := d.Report("prod")
	if !ok {
		t.Fatal("no report")
	}
	if rep.Status == "ok" || rep.Counts.Total() == 0 {
		t.Fatalf("fault not reported: %+v", rep)
	}
	var hit bool
	for _, f := range rep.Findings {
		if f.FID == inj.VictimFID.String() {
			hit = true
			if f.Action == "" || f.Rule == "" {
				t.Fatalf("victim graded without action/rule: %+v", f)
			}
		}
		if f.Severity != SevCritical && f.Severity != SevWarning && f.Severity != SevInfo {
			t.Fatalf("unparseable severity: %+v", f)
		}
	}
	if !hit {
		t.Fatalf("victim %v not in report: %+v", inj.VictimFID, rep.Findings)
	}
	sum := d.Clusters()[0]
	if sum.Status != rep.Status || sum.Findings != rep.Counts {
		t.Fatalf("summary %+v diverges from report %+v", sum, rep.Counts)
	}
}

// countingLock is a sync.Locker that records the maximum number of
// concurrent holders across every lock sharing the same counters.
type countingLock struct {
	mu       sync.Mutex
	cur, max *atomic.Int32
}

func (l *countingLock) Lock() {
	l.mu.Lock()
	cur := l.cur.Add(1)
	for {
		old := l.max.Load()
		if cur <= old || l.max.CompareAndSwap(old, cur) {
			return
		}
	}
}

func (l *countingLock) Unlock() {
	l.cur.Add(-1)
	l.mu.Unlock()
}

// TestDaemonPoolBoundsConcurrentRounds: with a one-slot worker pool,
// three trackers' rounds never overlap — each round runs under its
// cluster's quiesce lock, and the shared counters would catch any two
// holders at once.
func TestDaemonPoolBoundsConcurrentRounds(t *testing.T) {
	var cur, peak atomic.Int32
	specs := make([]ClusterSpec, 3)
	for i := range specs {
		specs[i] = ClusterSpec{
			Name:    fmt.Sprintf("c%d", i),
			Images:  checker.ClusterImages(testCluster(t)),
			Rounds:  3,
			Quiesce: &countingLock{cur: &cur, max: &peak},
		}
	}
	d := testDaemon(t, DaemonOptions{Workers: 1}, specs...)
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != 1 {
		t.Fatalf("peak concurrent rounds %d with a 1-slot pool", got)
	}
	for _, c := range d.Clusters() {
		if c.Rounds != 3 {
			t.Fatalf("cluster %s ran %d rounds", c.Name, c.Rounds)
		}
	}
}

// TestDaemonSurvivesFailedRounds: injected scan faults fail two rounds;
// the daemon records them (failure counter, history entries, last
// error) and keeps watching — the feed left intact retries, and a
// clean round clears the error.
func TestDaemonSurvivesFailedRounds(t *testing.T) {
	c := testCluster(t)
	d := testDaemon(t, DaemonOptions{},
		ClusterSpec{Name: "flaky", Images: checker.ClusterImages(c), Rounds: 4})
	d.Tracker("flaky").InjectScanFault(&inject.ScanFault{FailEvery: 1, MaxFailures: 2})
	// Dirty an inode so the early rounds have something to scan (and
	// fail on).
	if _, err := c.Create("/w/late", 2*64<<10); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep, _ := d.Report("flaky")
	if rep.Failures != 2 {
		t.Fatalf("failures %d (history %+v)", rep.Failures, rep.History)
	}
	if rep.LastError != "" {
		t.Fatalf("clean round did not clear the error: %q", rep.LastError)
	}
	if rep.Status != "ok" || rep.Rounds != 2 {
		t.Fatalf("status %s after %d clean rounds", rep.Status, rep.Rounds)
	}
	var failed int
	for _, h := range rep.History {
		if h.Err != "" {
			failed++
			if !strings.Contains(h.Err, "injected scan fault") {
				t.Fatalf("history error %q", h.Err)
			}
		}
	}
	if failed != 2 {
		t.Fatalf("%d failed history entries", failed)
	}
	if rep.Stats.InodesRescanned == 0 {
		t.Fatal("the retried feed never committed")
	}
}

// TestDaemonStatePersistence: a daemon's tracker state survives into a
// successor process — the second daemon resumes the lifetime counters
// instead of starting cold.
func TestDaemonStatePersistence(t *testing.T) {
	c := testCluster(t)
	images := checker.ClusterImages(c)
	state := t.TempDir()

	d1 := testDaemon(t, DaemonOptions{},
		ClusterSpec{Name: "durable", Images: images, StateDir: state, Rounds: 3})
	if err := d1.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := d1.Tracker("durable").Stats()
	if want.Checks != 3 {
		t.Fatalf("first daemon ran %d checks", want.Checks)
	}

	d2 := testDaemon(t, DaemonOptions{},
		ClusterSpec{Name: "durable", Images: images, StateDir: state, Rounds: 1})
	if got := d2.Tracker("durable").Stats(); got != want {
		t.Fatalf("successor started from %+v, want %+v", got, want)
	}
}

// TestDaemonRescanEvery: the periodic scrub fires on schedule.
func TestDaemonRescanEvery(t *testing.T) {
	d := testDaemon(t, DaemonOptions{},
		ClusterSpec{Name: "scrubbed", Images: checker.ClusterImages(testCluster(t)),
			Rounds: 4, RescanEvery: 2})
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := d.Tracker("scrubbed").Stats().Rescans; got != 2 {
		t.Fatalf("%d rescans after 4 rounds with rescan_every=2", got)
	}
}

// TestDaemonRunCancellation: cancelling the run context stops unbounded
// watchers cleanly (nil error).
func TestDaemonRunCancellation(t *testing.T) {
	d := testDaemon(t, DaemonOptions{},
		ClusterSpec{Name: "forever", Images: checker.ClusterImages(testCluster(t))})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	// Let at least one round land before pulling the plug.
	deadline := time.Now().Add(5 * time.Second)
	for d.Clusters()[0].Rounds == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("cancelled run: %v", err)
	}
	if d.Clusters()[0].Rounds == 0 {
		t.Fatal("no round completed before cancellation")
	}
}

// TestNewDaemonFromConfig: the config-file path end to end — images
// loaded from imgdir directories, rules from a file, state resumed.
func TestNewDaemonFromConfig(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"east", "west"} {
		dir := filepath.Join(root, name)
		if err := imgdir.Save(dir, checker.ClusterImages(testCluster(t))); err != nil {
			t.Fatal(err)
		}
	}
	rulesPath := writeRules(t, DefaultRules())
	cfg := &Config{
		Schema:   ConfigSchema,
		Rules:    rulesPath,
		Interval: Duration{time.Millisecond},
		Workers:  2,
		Clusters: []ClusterConfig{
			{Name: "east", Dir: filepath.Join(root, "east"), State: filepath.Join(root, "east-state")},
			{Name: "west", Dir: filepath.Join(root, "west")},
		},
	}
	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(root, "fleet.json")
	if err := os.WriteFile(cfgPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadConfig(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemonFromConfig(loaded)
	if err != nil {
		t.Fatal(err)
	}
	d.BoundRounds(2)
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, c := range d.Clusters() {
		if c.Status != "ok" || c.Rounds != 2 {
			t.Fatalf("cluster %+v", c)
		}
	}
	if _, err := os.Stat(filepath.Join(root, "east-state", "tracker.snap")); err != nil {
		t.Fatalf("state not persisted: %v", err)
	}

	if _, err := NewDaemonFromConfig(&Config{Schema: "nope"}); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := NewDaemonFromConfig(&Config{Schema: ConfigSchema,
		Clusters: []ClusterConfig{{Name: "ghost", Dir: filepath.Join(root, "missing")}}}); err == nil {
		t.Fatal("missing image dir accepted")
	}
}

func TestAddClusterValidation(t *testing.T) {
	d := testDaemon(t, DaemonOptions{})
	images := checker.ClusterImages(testCluster(t))
	if err := d.AddCluster(ClusterSpec{Name: "bad name", Images: images}); err == nil {
		t.Fatal("invalid name accepted")
	}
	if err := d.AddCluster(ClusterSpec{Name: "a", Images: images}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddCluster(ClusterSpec{Name: "a", Images: images}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := testDaemon(t, DaemonOptions{}).Run(context.Background()); err == nil {
		t.Fatal("empty daemon ran")
	}
}

// TestClusterOptionsKeptWithUnsetCore: a cluster whose options set only
// SplitProperties — Core left unset — keeps that setting; the paper's
// defaults fill in Core alone. The fixture is checker's stray-LinkEA
// cluster (TestSplitPlanesJudgedOnTheirOwnPairing): a file's LinkEA
// gains a parent entry naming its own first stripe object, which pairs
// on the merged graph and only the split namespace plane can flag.
func TestClusterOptionsKeptWithUnsetCore(t *testing.T) {
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 4, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		dir := fmt.Sprintf("/proj%d", d)
		if err := c.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 4; f++ {
			if _, err := c.Create(fmt.Sprintf("%s/file%d", dir, f), 3*64<<10); err != nil {
				t.Fatal(err)
			}
		}
	}
	ent, err := c.Stat("/proj1/file2")
	if err != nil {
		t.Fatal(err)
	}
	mdt := c.MDT.Img
	raw, _, err := mdt.GetXattr(ent.Ino, lustre.XattrLOV)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := lustre.DecodeLOVEA(raw)
	if err != nil {
		t.Fatal(err)
	}
	if raw, _, err = mdt.GetXattr(ent.Ino, lustre.XattrLink); err != nil {
		t.Fatal(err)
	}
	links, err := lustre.DecodeLinkEA(raw)
	if err != nil {
		t.Fatal(err)
	}
	links = append(links, lustre.LinkEntry{Parent: layout.Stripes[0].ObjectFID, Name: "stray"})
	if raw, err = lustre.EncodeLinkEA(links); err != nil {
		t.Fatal(err)
	}
	if err := mdt.SetXattr(ent.Ino, lustre.XattrLink, raw); err != nil {
		t.Fatal(err)
	}

	d := testDaemon(t, DaemonOptions{}, ClusterSpec{
		Name:    "split",
		Images:  checker.ClusterImages(c),
		Options: checker.Options{SplitProperties: true},
		Rounds:  1,
	})
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep, ok := d.Report("split")
	if !ok {
		t.Fatal("no report")
	}
	for _, f := range rep.Findings {
		if strings.Contains(f.Detail, "namespace-plane") {
			return
		}
	}
	t.Fatalf("no namespace-plane finding: SplitProperties was dropped; findings %+v", rep.Findings)
}
