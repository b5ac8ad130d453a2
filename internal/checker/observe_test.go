package checker

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"faultyrank/internal/core"
	"faultyrank/internal/inject"
	"faultyrank/internal/telemetry"
)

// TestMetricsEndpointWithTCPRun runs the TCP pipeline against a shared
// registry exposed over HTTP — the cmd/faultyrank -metrics-addr shape —
// and checks the exposition carries both scanner- and wire-side series.
func TestMetricsEndpointWithTCPRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	addr, stop, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	opt := DefaultOptions()
	opt.UseTCP = true
	opt.Metrics = reg
	c := fig7Cluster(t)
	res, err := Run(ClusterImages(c), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Net.Frames == 0 {
		t.Fatal("TCP run decoded no frames")
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"scanner_inodes_scanned_total",
		"wire_frames_sent_total",
		"wire_frames_received_total",
		"agg_chunks_total",
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("/metrics lacks %s:\n%s", series, body)
		}
	}
}

// TestSharedRegistryPerRunDeltas runs twice against one registry: the
// registry's counters accumulate across runs, but NetStats and ScanStats
// must stay per-run (delta-based), matching each other exactly.
func TestSharedRegistryPerRunDeltas(t *testing.T) {
	reg := telemetry.NewRegistry()
	opt := DefaultOptions()
	opt.UseTCP = true
	opt.Metrics = reg

	c := fig7Cluster(t)
	first, err := Run(ClusterImages(c), opt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(ClusterImages(c), opt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Scan != second.Scan {
		t.Errorf("per-run scan stats diverge on identical runs: %+v vs %+v", first.Scan, second.Scan)
	}
	if first.Net.Frames != second.Net.Frames || first.Net.Bytes != second.Net.Bytes {
		t.Errorf("per-run net stats diverge: %+v vs %+v", first.Net, second.Net)
	}
	// The shared registry, by contrast, holds both runs' worth.
	total := reg.Counter("scanner_inodes_scanned_total").Value()
	if want := first.Scan.InodesScanned + second.Scan.InodesScanned; total != want {
		t.Errorf("registry total = %d, want %d (sum of both runs)", total, want)
	}
}

// TestManifestShape checks the run manifest carries the documented
// sections with live values.
// TestManifestShape: the manifest's identity, phase tree, metrics and
// convergence section — on a clean cluster, where the rank is skipped and
// the section says so, and again with a fault, where it carries the
// trace.
func TestManifestShape(t *testing.T) {
	c := fig7Cluster(t)
	opt := DefaultOptions()
	opt.Core.ConvergenceTrace = true
	for _, faulty := range []bool{false, true} {
		if faulty {
			if _, err := inject.Inject(c, inject.DanglingObjectID, fig7Target); err != nil {
				t.Fatal(err)
			}
		}
		res, err := Run(ClusterImages(c), opt)
		if err != nil {
			t.Fatal(err)
		}
		m := res.Manifest(opt)
		if m.Schema != telemetry.ManifestSchema || m.Tool != "faultyrank" {
			t.Errorf("manifest identity wrong: %q %q", m.Schema, m.Tool)
		}
		if m.Phases == nil || m.Phases.Find("scan") == nil || m.Phases.Find("iterate") == nil {
			t.Error("manifest lacks the phase tree")
		}
		if m.Metrics.Counter("scanner_inodes_scanned_total") == 0 {
			t.Error("manifest metrics snapshot empty")
		}
		conv, ok := m.Results["convergence"].(map[string]any)
		if !ok {
			t.Fatalf("manifest lacks convergence results: %+v", m.Results)
		}
		if conv["iterations"].(int) != res.Rank.Iterations {
			t.Errorf("manifest iterations = %v, want %d", conv["iterations"], res.Rank.Iterations)
		}
		trace, _ := conv["trace"].([]core.IterStats)
		if !faulty {
			if conv["skipped"] != true || res.Rank.Iterations != 0 || len(trace) != 0 {
				t.Errorf("clean cluster: convergence section %+v, want skipped, no iterations, no trace", conv)
			}
			continue
		}
		if _, ok := conv["skipped"]; ok || len(trace) == 0 {
			t.Errorf("faulty cluster: convergence section %+v, want a trace and no skip", conv)
		}
	}
}
