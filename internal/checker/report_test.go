package checker

import (
	"strings"
	"testing"
	"time"

	"faultyrank/internal/agg"
	"faultyrank/internal/core"
	"faultyrank/internal/graph"
)

// goldenResult builds a Result by hand with every field that reaches the
// report pinned, so the rendered text can be compared byte for byte.
func goldenResult() *Result {
	return &Result{
		TScan:  1500 * time.Millisecond,
		TGraph: 250 * time.Millisecond,
		TRank:  125 * time.Millisecond,
		Coverage: Coverage{
			Total: 3,
		},
		Net: NetStats{Frames: 42, Bytes: 8192, DialRetries: 2},
		Scan: ScanStats{
			InodesScanned: 1000,
			DirentsRead:   400,
			EdgesEmitted:  900,
			ParseIssues:   1,
			Chunks:        7,
		},
		Stats:   graph.Stats{Vertices: 500, Edges: 900, PairedEdges: 800, UnpairedEdges: 100},
		Unified: &agg.Unified{Present: []bool{true, true}},
		Rank:    &core.Result{Iterations: 9, Converged: true},
	}
}

// TestReportGoldenClean pins the full report of a clean, fully-covered
// run — including the telemetry-derived scan counter line.
func TestReportGoldenClean(t *testing.T) {
	res := goldenResult()
	var buf strings.Builder
	if err := res.WriteReport(&buf, false); err != nil {
		t.Fatal(err)
	}
	want := `metadata graph: 500 vertices, 900 edges (800 paired, 100 unpaired), 0 phantom FIDs
timing: T_scan=1.500s  T_graph=0.250s  T_FR=0.125s  total=1.875s
rank: 9 iterations, converged=true
coverage: complete — all 3 server(s) merged
transfer: 42 frames, 8192 bytes, 2 dial retries
scan: 1000 inodes, 400 dirents, 900 edges emitted, 7 chunks, 1 parse issues
verdict: file system is consistent — no findings
`
	if got := buf.String(); got != want {
		t.Errorf("clean report mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestReportGoldenSkipped pins the rank line of a check that had nothing
// to judge: every relation paired, the rank skipped.
func TestReportGoldenSkipped(t *testing.T) {
	res := goldenResult()
	res.Stats.PairedEdges, res.Stats.UnpairedEdges = 900, 0
	res.Rank = &core.Result{Skipped: true}
	var buf strings.Builder
	if err := res.WriteReport(&buf, false); err != nil {
		t.Fatal(err)
	}
	want := `metadata graph: 500 vertices, 900 edges (900 paired, 0 unpaired), 0 phantom FIDs
timing: T_scan=1.500s  T_graph=0.250s  T_FR=0.125s  total=1.875s
rank: skipped — every relation paired
coverage: complete — all 3 server(s) merged
transfer: 42 frames, 8192 bytes, 2 dial retries
scan: 1000 inodes, 400 dirents, 900 edges emitted, 7 chunks, 1 parse issues
verdict: file system is consistent — no findings
`
	if got := buf.String(); got != want {
		t.Errorf("skipped report mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestReportGoldenDegraded pins the degraded-coverage rendering: the
// missing servers, the stream-error lines, and the same counter lines.
func TestReportGoldenDegraded(t *testing.T) {
	res := goldenResult()
	res.Coverage.Missing = []string{"ost1"}
	res.Net.StreamErrors = []string{"stream 2: connection reset"}
	var buf strings.Builder
	if err := res.WriteReport(&buf, false); err != nil {
		t.Fatal(err)
	}
	want := `metadata graph: 500 vertices, 900 edges (800 paired, 100 unpaired), 0 phantom FIDs
timing: T_scan=1.500s  T_graph=0.250s  T_FR=0.125s  total=1.875s
rank: 9 iterations, converged=true
coverage: DEGRADED — 2 of 3 server(s) merged; missing: ost1
  findings below cover surviving servers only; cross-server
  relations into missing servers will appear unpaired
  stream error: stream 2: connection reset
transfer: 42 frames, 8192 bytes, 2 dial retries
scan: 1000 inodes, 400 dirents, 900 edges emitted, 7 chunks, 1 parse issues
verdict: file system is consistent — no findings
`
	if got := buf.String(); got != want {
		t.Errorf("degraded report mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRunPopulatesObservability checks that an ordinary in-process run
// fills the new Result fields: scan counters, the phase tree, and a
// non-empty metrics snapshot — and that the report carries the scan
// counter line.
func TestRunPopulatesObservability(t *testing.T) {
	c := fig7Cluster(t)
	res, err := Run(ClusterImages(c), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scan.InodesScanned == 0 || res.Scan.Chunks == 0 {
		t.Errorf("scan stats not populated: %+v", res.Scan)
	}
	if res.Phases == nil || res.Phases.Name != "run" {
		t.Fatalf("phase tree missing: %+v", res.Phases)
	}
	for _, phase := range []string{"scan", "aggregate", "rank"} {
		if res.Phases.Find(phase) == nil {
			t.Errorf("phase tree lacks %q: %+v", phase, res.Phases)
		}
	}
	if v := res.Metrics.Counter("scanner_inodes_scanned_total"); v != res.Scan.InodesScanned {
		t.Errorf("snapshot counter = %d; want %d", v, res.Scan.InodesScanned)
	}
	var buf strings.Builder
	if err := res.WriteReport(&buf, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "scan: ") {
		t.Errorf("report lacks scan counter line:\n%s", buf.String())
	}
}
