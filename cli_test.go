package faultyrank_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTools compiles every CLI into a temp dir once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/...")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	return bin
}

func run(t *testing.T, wantExit int, bin, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, tool), args...)
	out, err := cmd.CombinedOutput()
	exit := 0
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	if exit != wantExit {
		t.Fatalf("%s %v: exit %d, want %d\n%s", tool, args, exit, wantExit, out)
	}
	return string(out)
}

// TestCLIPipeline drives the complete toolchain the README documents:
// make a cluster, corrupt it, check (non-zero exit), repair, re-check
// clean, compare with the LFSCK tool, and exercise the graph workbench.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs all CLIs")
	}
	bin := buildTools(t)
	work := t.TempDir()
	cluster := filepath.Join(work, "cluster")

	out := run(t, 0, bin, "frmkfs", "-out", cluster, "-files", "300", "-compact")
	if !strings.Contains(out, "populated: ") || !strings.Contains(out, "wrote 9 images") {
		t.Fatalf("frmkfs output: %s", out)
	}

	out = run(t, 0, bin, "frinject", "-list")
	if !strings.Contains(out, "mismatch/file-id-corrupt") {
		t.Fatalf("frinject -list output: %s", out)
	}
	out = run(t, 0, bin, "frinject", "-dir", cluster, "-scenario", "dangling/object-id-corrupt")
	if !strings.Contains(out, "ground truth: id field") {
		t.Fatalf("frinject output: %s", out)
	}

	// Findings present, no repair requested: exit 1.
	out = run(t, 1, bin, "faultyrank", "-dir", cluster)
	if !strings.Contains(out, "faulty-id") {
		t.Fatalf("faultyrank check output: %s", out)
	}
	// Repair and verify.
	out = run(t, 0, bin, "faultyrank", "-dir", cluster, "-repair")
	if !strings.Contains(out, "consistent after repair") {
		t.Fatalf("faultyrank repair output: %s", out)
	}
	// Now clean: exit 0, no findings.
	out = run(t, 0, bin, "faultyrank", "-dir", cluster)
	if !strings.Contains(out, "no findings") {
		t.Fatalf("faultyrank verify output: %s", out)
	}
	// LFSCK agrees the repaired cluster is clean.
	out = run(t, 0, bin, "frlfsck", "-dir", cluster, "-dry-run")
	if !strings.Contains(out, "0 actions") {
		t.Fatalf("frlfsck output: %s", out)
	}

	// Graph workbench: gen -> stats -> convert -> rank.
	gbin := filepath.Join(work, "g.bin")
	gtxt := filepath.Join(work, "g.txt")
	run(t, 0, bin, "frgraph", "gen", "-kind", "rmat", "-scale", "10", "-o", gbin)
	out = run(t, 0, bin, "frgraph", "stats", "-i", gbin)
	if !strings.Contains(out, "vertices ") {
		t.Fatalf("frgraph stats output: %s", out)
	}
	run(t, 0, bin, "frgraph", "convert", "-i", gbin, "-o", gtxt)
	out = run(t, 0, bin, "frgraph", "rank", "-i", gtxt, "-trace")
	if !strings.Contains(out, "converged=true") || !strings.Contains(out, "iter  1") {
		t.Fatalf("frgraph rank output: %s", out)
	}

	// Table generator smoke.
	out = run(t, 0, bin, "frbench", "-table", "2")
	if !strings.Contains(out, "Table II") {
		t.Fatalf("frbench output: %s", out)
	}
}

// TestCLIObservability drives the observability surface end to end: a
// TCP-mode check with a live metrics endpoint, a run manifest and a
// cluster manifest.
func TestCLIObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs CLIs")
	}
	bin := buildTools(t)
	work := t.TempDir()
	cluster := filepath.Join(work, "cluster")
	run(t, 0, bin, "frmkfs", "-out", cluster, "-files", "120", "-compact")

	manifest := filepath.Join(work, "run.json")
	clusterMf := filepath.Join(work, "cluster.json")
	out := run(t, 0, bin, "faultyrank", "-dir", cluster, "-tcp",
		"-metrics-addr", "127.0.0.1:0", "-run-manifest", manifest,
		"-cluster-manifest", clusterMf, "-profile-rates", "100")
	if !strings.Contains(out, "serving /metrics") {
		t.Fatalf("metrics endpoint not announced: %s", out)
	}
	if !strings.Contains(out, "run manifest written") {
		t.Fatalf("manifest not announced: %s", out)
	}
	if !strings.Contains(out, "cluster manifest written") {
		t.Fatalf("cluster manifest not announced: %s", out)
	}
	if !strings.Contains(out, "per-server scan timeline:") || !strings.Contains(out, "straggler: ") {
		t.Fatalf("report lacks the per-server timeline: %s", out)
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Schema string `json:"schema"`
		Phases struct {
			Name string `json:"name"`
		} `json:"phases"`
		Results map[string]json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest not valid JSON: %v\n%s", err, data)
	}
	if m.Schema != "faultyrank/run-manifest/v1" || m.Phases.Name != "run" {
		t.Fatalf("manifest shape wrong: schema=%q root=%q", m.Schema, m.Phases.Name)
	}
	for _, key := range []string{"coverage", "convergence", "scan", "net", "cluster"} {
		if _, ok := m.Results[key]; !ok {
			t.Errorf("manifest results lack %q:\n%s", key, data)
		}
	}

	// The standalone cluster manifest: versioned schema, one section per
	// server (frmkfs -compact builds 1 MDT + 8 OSTs), a named straggler.
	cdata, err := os.ReadFile(clusterMf)
	if err != nil {
		t.Fatal(err)
	}
	var cm struct {
		Schema  string `json:"schema"`
		Servers []struct {
			Server  string `json:"server"`
			Missing bool   `json:"missing"`
		} `json:"servers"`
		Skew struct {
			Straggler string `json:"straggler"`
		} `json:"skew"`
	}
	if err := json.Unmarshal(cdata, &cm); err != nil {
		t.Fatalf("cluster manifest not valid JSON: %v\n%s", err, cdata)
	}
	if cm.Schema != "faultyrank/cluster-manifest/v1" {
		t.Fatalf("cluster manifest schema = %q", cm.Schema)
	}
	if len(cm.Servers) != 9 {
		t.Fatalf("cluster manifest has %d server sections, want 9:\n%s", len(cm.Servers), cdata)
	}
	for _, s := range cm.Servers {
		if s.Missing {
			t.Errorf("clean run marked %s missing", s.Server)
		}
	}
	if cm.Skew.Straggler == "" {
		t.Fatalf("cluster manifest names no straggler:\n%s", cdata)
	}

	// frbench keeps only the paper's artifacts: a retired system table is
	// refused, with the accepted list in the error.
	out = run(t, 1, bin, "frbench", "-table", "ingest", "-scale", "smoke")
	if !strings.Contains(out, `unknown table "ingest"`) || !strings.Contains(out, "2|3|4|5|6|fig7|dne|ablation|all") {
		t.Fatalf("frbench -table ingest: %s", out)
	}
}

// TestCLIOnline drives the incremental-check surface: a one-shot
// -online check against an injected fault, the flag guards, a bounded
// watch loop and durable state.
func TestCLIOnline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs CLIs")
	}
	bin := buildTools(t)
	work := t.TempDir()
	cluster := filepath.Join(work, "cluster")
	run(t, 0, bin, "frmkfs", "-out", cluster, "-files", "200", "-compact")

	// Clean cluster, bounded watch loop: idle rounds, exit 0.
	out := run(t, 0, bin, "faultyrank", "-dir", cluster, "-online",
		"-watch", "10ms", "-watch-rounds", "3")
	if !strings.Contains(out, "round 3: refreshed 0 inode(s)") {
		t.Fatalf("watch output lacks round 3: %s", out)
	}

	// Flag guards: -online is check-only, -watch needs -online, and
	// -state is an online-mode flag.
	run(t, 1, bin, "faultyrank", "-dir", cluster, "-online", "-repair")
	run(t, 1, bin, "faultyrank", "-dir", cluster, "-watch", "1s")
	run(t, 1, bin, "faultyrank", "-dir", cluster, "-state", filepath.Join(work, "state"))

	// Durable state: the first -state run starts fresh and leaves a
	// snapshot behind; the second resumes from it instead of rescanning.
	stateDir := filepath.Join(work, "state")
	out = run(t, 0, bin, "faultyrank", "-dir", cluster, "-online", "-state", stateDir,
		"-watch", "10ms", "-watch-rounds", "2")
	if !strings.Contains(out, "starting fresh") {
		t.Fatalf("first -state run output lacks fresh-start notice: %s", out)
	}
	if _, err := os.Stat(filepath.Join(stateDir, "tracker.snap")); err != nil {
		t.Fatalf("watch with -state left no snapshot: %v", err)
	}
	out = run(t, 0, bin, "faultyrank", "-dir", cluster, "-online", "-state", stateDir)
	if !strings.Contains(out, "resumed tracker state") {
		t.Fatalf("second -state run did not resume: %s", out)
	}
	if !strings.Contains(out, "no findings") {
		t.Fatalf("resumed check on clean cluster: %s", out)
	}

	// Inject, then a one-shot online check finds it: exit 1.
	run(t, 0, bin, "frinject", "-dir", cluster, "-scenario", "dangling/object-id-corrupt")
	out = run(t, 1, bin, "faultyrank", "-dir", cluster, "-online")
	if !strings.Contains(out, "faulty-id") {
		t.Fatalf("online check output: %s", out)
	}
}

// TestCLIAgedCluster exercises the -inodes aging path of frmkfs plus a
// TCP-mode check.
func TestCLIAgedCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs CLIs")
	}
	bin := buildTools(t)
	cluster := filepath.Join(t.TempDir(), "aged")
	out := run(t, 0, bin, "frmkfs", "-out", cluster, "-inodes", "1500", "-compact")
	if !strings.Contains(out, "aged cluster:") {
		t.Fatalf("frmkfs aging output: %s", out)
	}
	out = run(t, 0, bin, "faultyrank", "-dir", cluster, "-tcp")
	if !strings.Contains(out, "no findings") {
		t.Fatalf("tcp check output: %s", out)
	}
}
