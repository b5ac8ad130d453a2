package health

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"faultyrank/internal/agg"
	"faultyrank/internal/checker"
	"faultyrank/internal/inject"
	"faultyrank/internal/lustre"
	"faultyrank/internal/repair"
	"faultyrank/internal/scanner"
)

// soakMember is one cluster's slice of the soak fleet: the live
// cluster, its quiesce lock (shared with the mutator), and the fault
// scenario this cluster will suffer.
type soakMember struct {
	name     string
	cluster  *lustre.Cluster
	quiesce  sync.Mutex
	scenario inject.Scenario
	victim   string
}

// coldFindings is the offline ground truth: a fresh full scan and cold
// analysis of the cluster's images, quiesced.
func coldFindings(t *testing.T, sm *soakMember) []checker.Finding {
	t.Helper()
	sm.quiesce.Lock()
	defer sm.quiesce.Unlock()
	images := checker.ClusterImages(sm.cluster)
	parts := make([]*scanner.Partial, len(images))
	for i, img := range images {
		p, err := scanner.ScanImage(img, 0)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = p
	}
	res := &checker.Result{}
	if err := checker.AnalyzeUnified(res, images, agg.MergeWorkers(parts, 0), checker.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	return res.Findings
}

// findingKeys reduces findings to a sorted kind/FID multiset — the
// drift comparison between the daemon's view and the ground truth.
func findingKeys(fs []checker.Finding) []string {
	out := make([]string, 0, len(fs))
	for _, f := range fs {
		out = append(out, f.Kind.String()+" "+f.FID.String())
	}
	sort.Strings(out)
	return out
}

// mentionsFID reports whether a graded finding concerns the FID —
// directly, in its detail, or through a recommended repair.
func mentionsFID(f GradedFinding, fid string) bool {
	if f.FID == fid || strings.Contains(f.Detail, fid) {
		return true
	}
	for _, r := range f.Repairs {
		if strings.Contains(r, fid) {
			return true
		}
	}
	return false
}

func gradedKeys(fs []GradedFinding) []string {
	out := make([]string, 0, len(fs))
	for _, f := range fs {
		out = append(out, f.Kind+" "+f.FID)
	}
	sort.Strings(out)
	return out
}

func assertNoDrift(t *testing.T, sm *soakMember, d *Daemon) {
	t.Helper()
	cold := findingKeys(coldFindings(t, sm))
	rep, ok := d.Report(sm.name)
	if !ok {
		t.Fatalf("%s: no report", sm.name)
	}
	got := gradedKeys(rep.Findings)
	if len(got) != len(cold) {
		t.Fatalf("%s: daemon reports %d finding(s), offline ground truth %d:\n daemon %v\n cold   %v",
			sm.name, len(got), len(cold), got, cold)
	}
	for i := range got {
		if got[i] != cold[i] {
			t.Fatalf("%s: drift at %d:\n daemon %v\n cold   %v", sm.name, i, got, cold)
		}
	}
	// The report's tracker stats must be the tracker's — not a cached or
	// re-derived copy that could lag the daemon's own accounting.
	if rep.Stats != d.Tracker(sm.name).Stats() {
		t.Fatalf("%s: report stats %+v drift from tracker %+v",
			sm.name, rep.Stats, d.Tracker(sm.name).Stats())
	}
}

// TestFleetSoak drives one daemon through the full multi-cluster
// lifecycle the tentpole promises: four clusters watched concurrently
// on a two-slot pool under live mutation, injected scan faults failing
// rounds mid-soak, a periodic scrub, then a distinct Fig. 7 fault per
// cluster — detected and graded with an action — repaired through the
// change feed, and re-checked clean, with zero drift between the
// daemon's view and a cold offline analysis at every settled point.
func TestFleetSoak(t *testing.T) {
	scenarios := []inject.Scenario{
		inject.DanglingDirent,
		inject.UnrefLOVEADropped,
		inject.UnrefStaleObject,
		inject.MismatchFilterFID,
	}
	fleet := make([]*soakMember, len(scenarios))
	specs := make([]ClusterSpec, len(scenarios))
	for i, s := range scenarios {
		sm := &soakMember{
			name:     fmt.Sprintf("soak%d", i),
			cluster:  testCluster(t),
			scenario: s,
			victim:   fmt.Sprintf("/w/f%02d", i),
		}
		fleet[i] = sm
		specs[i] = ClusterSpec{
			Name:    sm.name,
			Images:  checker.ClusterImages(sm.cluster),
			Quiesce: &sm.quiesce,
		}
	}
	// Member 0 scrubs every 3 completed rounds; member 1 suffers scan
	// faults that fail two of its early rounds.
	specs[0].RescanEvery = 3
	d := testDaemon(t, DaemonOptions{Workers: 2}, specs...)
	d.Tracker(fleet[1].name).InjectScanFault(&inject.ScanFault{FailEvery: 2, MaxFailures: 2})

	// Pre-dirty every feed so round one has real work (and the faulted
	// member has enough scans to burn its failures early).
	for _, sm := range fleet {
		for j := 0; j < 3; j++ {
			if _, err := sm.cluster.Create(fmt.Sprintf("/w/pre-%d", j), 2*64<<10); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Phase 1: watch under live mutation. Each cluster's mutator churns
	// its own namespace under the shared quiesce lock.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, sm := range fleet {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sm.quiesce.Lock()
				p := fmt.Sprintf("/w/churn-%03d", i)
				if _, err := sm.cluster.Create(p, 64<<10); err == nil && i%3 == 2 {
					_ = sm.cluster.Unlink(p)
				}
				sm.quiesce.Unlock()
				time.Sleep(time.Millisecond)
			}
		}()
	}
	d.BoundRounds(6)
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// Phase 2: drain — two quiet rounds consume whatever the mutators
	// left in the feeds, then the daemon's view must match a cold scan.
	d.BoundRounds(2)
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, sm := range fleet {
		assertNoDrift(t, sm, d)
	}
	if rep, _ := d.Report(fleet[1].name); rep.Failures != 2 {
		t.Fatalf("faulted member recorded %d failed rounds (want 2): %+v", rep.Failures, rep.History)
	}
	if got := d.Tracker(fleet[0].name).Stats().Rescans; got == 0 {
		t.Fatal("scrubbed member never rescanned")
	}

	// Phase 3: every cluster suffers its own Fig. 7 scenario; two watch
	// rounds later each fault must be in the report, graded, with a
	// suggested action.
	injected := make([]*inject.Injection, len(fleet))
	for i, sm := range fleet {
		sm.quiesce.Lock()
		inj, err := inject.Inject(sm.cluster, sm.scenario, sm.victim)
		sm.quiesce.Unlock()
		if err != nil {
			t.Fatalf("%s: %v", sm.name, err)
		}
		injected[i] = inj
	}
	d.BoundRounds(2)
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, sm := range fleet {
		assertNoDrift(t, sm, d)
		rep, _ := d.Report(sm.name)
		if rep.Status == "ok" || rep.Counts.Total() == 0 {
			t.Fatalf("%s: injected %v not reported: %+v", sm.name, sm.scenario, rep.Counts)
		}
		// The victim surfaces either as the finding's own FID or through
		// the recommended repairs (a stale object's quarantine names the
		// phantom owner as its source).
		victim := injected[i].VictimFID.String()
		var hit bool
		for _, f := range rep.Findings {
			if !mentionsFID(f, victim) {
				continue
			}
			hit = true
			if f.Action == "" || f.Rule == "" {
				t.Fatalf("%s: victim graded without rule/action: %+v", sm.name, f)
			}
		}
		if !hit {
			t.Fatalf("%s: victim %s of %v missing from report %v",
				sm.name, victim, sm.scenario, gradedKeys(rep.Findings))
		}
	}
	for _, c := range d.Clusters() {
		if c.Status == "ok" || c.Status == "pending" {
			t.Fatalf("cluster %s reads %s with a live fault", c.Name, c.Status)
		}
	}

	// Phase 4: repair each cluster from the daemon's own last result —
	// the repairs flow through the change feed like any other mutation —
	// then re-check clean.
	for _, sm := range fleet {
		res := d.lastResult(sm.name)
		if res == nil || len(res.Findings) == 0 {
			t.Fatalf("%s: no result to repair from", sm.name)
		}
		sm.quiesce.Lock()
		sum := repair.NewEngine(checker.ClusterImages(sm.cluster), res.Result).Apply(res.Findings)
		sm.quiesce.Unlock()
		if sum.Applied == 0 {
			t.Fatalf("%s: nothing repaired: %v", sm.name, sum.Log)
		}
	}
	d.BoundRounds(2)
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, sm := range fleet {
		assertNoDrift(t, sm, d)
		rep, _ := d.Report(sm.name)
		if rep.Status != "ok" || rep.Counts.Total() != 0 {
			t.Fatalf("%s: not clean after repair: %+v", sm.name, rep.Findings)
		}
	}
}
