package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"faultyrank/internal/checker"
	"faultyrank/internal/core"
	"faultyrank/internal/graph"
	"faultyrank/internal/online"
)

func smokeRun(t *testing.T, name string, seed int64) *runResult {
	t.Helper()
	res, err := runWorkload(runConfig{Workload: name, Seed: seed, Seconds: 0, Trace: 2, Sizes: scales["smoke"], Log: io.Discard})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", name, res.Failed, res.Attempted, res.Failures)
	}
	return res
}

// TestSmokeRuns runs every workload twice at smoke scale: it emits
// exactly the declared metric names, the staged drive equals the
// pipeline (a mismatch is a failed traced operation), span self times
// add up, and the same seed gives the same counts.
func TestSmokeRuns(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res := smokeRun(t, name, 1)
			assertKeys(t, "end-to-end", res.EndToEnd, endToEnd)
			assertKeys(t, "per-layer", res.PerLayer, perLayer)
			for _, def := range endToEnd {
				if v := res.EndToEnd[def.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", def.Name, v)
				}
			}
			if _, ok := res.PerLayer["checker.trace_overhead_share"]; !ok {
				t.Error("checker.trace_overhead_share not reported")
			}
			if p := res.Provenance; !p.valid() || p.N != scales["smoke"].MinOps || p.TracedN != scales["smoke"].TracedOps {
				t.Errorf("provenance %+v", p)
			}

			// Σ self time over an operation's spans = Σ of its root spans.
			self := selfSeconds(res.spans)
			selfByOp, rootByOp := map[int]float64{}, map[int]float64{}
			for _, s := range res.spans {
				selfByOp[s.Op] += self[s.ID]
				if s.Parent < 0 {
					rootByOp[s.Op] += s.seconds()
				}
				if self[s.ID] < -1e-9 {
					t.Errorf("span %q has negative self time %g", s.Name, self[s.ID])
				}
			}
			for op, want := range rootByOp {
				if got := selfByOp[op]; math.Abs(got-want) > 1e-9 {
					t.Errorf("op %d: self times sum to %g, root spans to %g", op, got, want)
				}
			}

			again := smokeRun(t, name, 1)
			for _, k := range []string{"scanner.inodes", "agg.vertices", "agg.edges", "core.iterations", "checker.findings"} {
				if a, b := res.PerLayer[k].Value, again.PerLayer[k].Value; a != b {
					t.Errorf("%s differs between two runs of seed 1: %v vs %v", k, a, b)
				}
			}

			// The driver's result line carries one metric set per mode.
			for trace, defs := range map[int][]metricDef{0: endToEnd, 1: perLayer} {
				var s summary
				if err := json.Unmarshal([]byte(summaryLine(res, trace)), &s); err != nil {
					t.Fatal(err)
				}
				assertKeys(t, "summary", s.Metrics, defs)
			}
		})
	}
}

func assertKeys(t *testing.T, what string, got map[string]metricValue, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", what, len(got), len(want))
	}
	for _, d := range want {
		if v, ok := got[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("%s: metric %s missing or unit %q != %q", what, d.Name, v.Unit, d.Unit)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the tables in metrics.go
// in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	check := func(what string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", what, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound || !nameRE.MatchString(g.Name) {
				t.Errorf("%s[%d]: %+v, want %+v", what, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}

func flipBit(x float64) float64 { return math.Float64frombits(math.Float64bits(x) ^ 1) }

// The oracle tests feed each oracle a right answer, then a wrong one.

func TestColdOracleCanFail(t *testing.T) {
	w := &coldCheck{}
	if err := w.setup(1, scales["smoke"]); err != nil {
		t.Fatal(err)
	}
	res, err := checker.Run(w.images, w.opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := coldOracle(w.ref, res); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	res.Rank.PropRank[7] = flipBit(res.Rank.PropRank[7])
	if coldOracle(w.ref, res) == nil {
		t.Error("one flipped rank bit passed")
	}
	res.Rank.PropRank[7] = flipBit(res.Rank.PropRank[7])
	res.Findings = append(res.Findings, checker.Finding{Kind: checker.OrphanObject})
	if coldOracle(w.ref, res) == nil {
		t.Error("a finding on the clean cluster passed")
	}
	res.Findings = nil
	res.Coverage.Missing = []string{"ost3"}
	if coldOracle(w.ref, res) == nil {
		t.Error("incomplete coverage passed")
	}
}

func TestRMATOracleCanFail(t *testing.T) {
	w := &rankRMAT{}
	if err := w.setup(1, scales["smoke"]); err != nil {
		t.Fatal(err)
	}
	r := core.Run(graph.NewBidirectedUntyped(w.n, w.edges, 0), core.DefaultOptions())
	if err := rmatOracle(w.ref, r); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	r.IDRank[0] = flipBit(r.IDRank[0])
	if rmatOracle(w.ref, r) == nil {
		t.Error("one flipped rank bit passed")
	}
	r.IDRank[0] = flipBit(r.IDRank[0])
	r.Converged = false
	if rmatOracle(w.ref, r) == nil {
		t.Error("an unconverged run passed")
	}
}

func TestFaultOracleCanFail(t *testing.T) {
	w := &faultRepair{}
	if err := w.setup(1, scales["smoke"]); err != nil {
		t.Fatal(err)
	}
	images, err := copyImages(w.faulted)
	if err != nil {
		t.Fatal(err)
	}
	found, sum, verify, err := w.checkRepairVerify(images)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultOracle(w.regions, found, sum, verify); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}

	// Drop region 0's findings: a lost root cause.
	all := found.Findings
	found.Findings = nil
	for _, f := range all {
		if !w.regions[0][f.FID] && !touches(f, w.regions[0]) {
			found.Findings = append(found.Findings, f)
		}
	}
	if len(found.Findings) == len(all) || faultOracle(w.regions, found, sum, verify) == nil {
		t.Error("a planted fault with no finding passed")
	}
	found.Findings = all

	// A finding outside every region: a false positive.
	found.Findings = append(all[:len(all):len(all)], checker.Finding{Kind: checker.OrphanObject})
	if faultOracle(w.regions, found, sum, verify) == nil {
		t.Error("a finding outside every region passed")
	}
	found.Findings = all

	// One region left un-repaired: verify against images still faulted.
	unrepaired, err := checker.Run(w.faulted, w.opt)
	if err != nil {
		t.Fatal(err)
	}
	if faultOracle(w.regions, found, sum, unrepaired) == nil {
		t.Error("a dirty verify pass passed")
	}
	sum.Skipped++
	if faultOracle(w.regions, found, sum, verify) == nil {
		t.Error("a skipped repair passed")
	}
}

func TestOnlineOracleCanFail(t *testing.T) {
	w := &onlineDelta{}
	if err := w.setup(1, scales["smoke"]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.op(); err != nil {
		t.Fatalf("right round rejected: %v", err)
	}
	last, err := w.tracker.Check()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := checker.Run(w.images, w.opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := onlineFinishOracle(last, cold); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	withFinding := &online.CheckResult{Result: &checker.Result{Findings: []checker.Finding{{Kind: checker.StaleObject}}}}
	if roundOracle(withFinding) == nil {
		t.Error("a round with a finding passed")
	}
	cold.Findings = append(cold.Findings, checker.Finding{Kind: checker.StaleObject})
	if onlineFinishOracle(last, cold) == nil {
		t.Error("online and cold findings differ, yet passed")
	}
	cold.Findings = nil
	cold.Unified.FIDs = cold.Unified.FIDs[1:]
	if onlineFinishOracle(last, cold) == nil {
		t.Error("online and cold graph sizes differ, yet passed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if v, pct := tail([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25}); v != 15 || pct != 60 {
		t.Errorf("tail = %v at p%v, want 15 at p60", v, pct)
	}
}

// TestCompare: same numbers are ok, a worse median is worse, a side
// noisier than the bound is unresolved, and a result file that cannot
// say where it came from is refused.
func TestCompare(t *testing.T) {
	write := func(dir string, results ...float64) string {
		dir = filepath.Join(t.TempDir(), dir)
		for _, v := range results {
			res := &runResult{Workload: "rank_rmat", Correct: true, Attempted: 20,
				Provenance: provenance{GoVersion: "go", NProc: 2, N: 20, Seed: 1},
				EndToEnd:   pick(endToEnd, sample{"result_s": v, "peak_rss_mib": 50, "alloc_mib_per_op": 17, "setup_s": 1})}
			if err := writeFiles(dir, res); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	base := write("a", 1.00, 1.01, 0.99, 1.00)
	for _, c := range []struct {
		name    string
		dir     string
		bad     bool
		verdict string
	}{
		{"same", write("same", 1.01, 1.00, 1.00, 0.99), false, ""},
		{"slower", write("slower", 1.30, 1.31, 1.29, 1.30), true, "worse"},
		{"noisy", write("noisy", 0.80, 1.00, 1.20, 1.40), true, "unresolved"},
	} {
		var out strings.Builder
		bad, err := compareDirs(&out, base, c.dir)
		if err != nil {
			t.Fatal(err)
		}
		if bad != c.bad || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: bad=%t, output:\n%s", c.name, bad, out.String())
		}
	}
	anonymous := filepath.Join(t.TempDir(), "anon")
	if err := writeFiles(anonymous, &runResult{Workload: "rank_rmat"}); err != nil {
		t.Fatal(err)
	}
	if _, err := compareDirs(io.Discard, base, anonymous); err == nil {
		t.Error("a result file without provenance was accepted")
	}
}
