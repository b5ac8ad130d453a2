package checker

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/telemetry"
)

// eightServerCluster simulates the paper's evaluation shape: 1 MDS +
// several OSS, enough files that every OST holds objects.
func eightServerCluster(t testing.TB) *lustre.Cluster {
	t.Helper()
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 7, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 4; d++ {
		dir := fmt.Sprintf("/proj%d", d)
		if err := c.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 6; f++ {
			if _, err := c.Create(fmt.Sprintf("%s/file%d", dir, f), 7*64<<10); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// TestClusterManifestTCPEightServers is the tentpole's acceptance run:
// a TCP-path run over 1 MDT + 7 OSTs produces a ClusterManifest with 8
// per-server sections, merged totals equal to an in-process run's
// totals, and a skew section naming the straggler.
func TestClusterManifestTCPEightServers(t *testing.T) {
	t.Parallel()
	c := eightServerCluster(t)
	images := ClusterImages(c)

	opt := DefaultOptions()
	opt.UseTCP = true
	opt.ChunkSize = 64
	opt.ScanTimeout = testTimeout(t)
	tcpRes, err := Run(images, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := tcpRes.Cluster
	if m == nil || m.Schema != ClusterManifestSchema {
		t.Fatalf("cluster manifest missing or unversioned: %+v", m)
	}
	if len(m.Servers) != 8 {
		t.Fatalf("sections = %d, want 8", len(m.Servers))
	}
	for _, s := range m.Servers {
		if s.Missing {
			t.Fatalf("clean run has missing telemetry for %s", s.Server)
		}
		if s.Frames == 0 || s.Bytes == 0 {
			t.Errorf("server %s shipped no frames/bytes over TCP (%d/%d)", s.Server, s.Frames, s.Bytes)
		}
		if s.ScanSeconds <= 0 {
			t.Errorf("server %s has no scan span duration", s.Server)
		}
	}

	// Per-server sections must sum to the run-wide scan totals, and an
	// in-process run over the same images must agree: the cluster view
	// is the same data no matter which path carried it.
	inpRes, err := Run(images, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"scanner_inodes_scanned_total",
		"scanner_dirents_read_total",
		"scanner_edges_emitted_total",
		"scanner_chunks_released_total",
	} {
		tcpTotal := m.Cluster.Counter(name)
		if tcpTotal == 0 {
			t.Errorf("merged cluster counter %s is zero", name)
		}
		if inp := inpRes.Cluster.Cluster.Counter(name); name != "scanner_chunks_released_total" && tcpTotal != inp {
			t.Errorf("%s: TCP cluster total %d != in-process total %d", name, tcpTotal, inp)
		}
	}
	if got, want := m.Cluster.Counter("scanner_inodes_scanned_total"), tcpRes.Scan.InodesScanned; got != want {
		t.Errorf("merged inodes %d != run-wide ScanStats %d", got, want)
	}
	var perServer int64
	for _, s := range m.Servers {
		perServer += s.InodesScanned
	}
	if perServer != tcpRes.Scan.InodesScanned {
		t.Errorf("per-server inode sum %d != run total %d", perServer, tcpRes.Scan.InodesScanned)
	}

	// Skew must name a straggler that is one of the servers, bounded by
	// its own extremes.
	sk := m.Skew
	if m.Server(sk.Straggler) == nil || m.Server(sk.Fastest) == nil {
		t.Fatalf("skew names unknown servers: %+v", sk)
	}
	if sk.SlowestSeconds < sk.FastestSeconds || sk.MeanSeconds <= 0 || sk.StragglerRatio < 1 {
		t.Errorf("skew not internally consistent: %+v", sk)
	}
	if m.Server(sk.Straggler).ScanSeconds != sk.SlowestSeconds {
		t.Errorf("straggler section disagrees with skew: %+v", sk)
	}

	// The report gains the per-server timeline with attribution.
	var buf bytes.Buffer
	if err := tcpRes.WriteReport(&buf, false); err != nil {
		t.Fatal(err)
	}
	report := buf.String()
	if !strings.Contains(report, "per-server scan timeline:") {
		t.Error("report lacks the timeline section")
	}
	if !strings.Contains(report, "straggler: "+sk.Straggler) {
		t.Errorf("report does not attribute the straggler %q:\n%s", sk.Straggler, report)
	}

	// Merging the shipped snapshots in any order reproduces the manifest
	// totals byte-identically (the merge-law acceptance check, on real
	// wire-shipped data).
	snaps := make([]telemetry.Snapshot, 0, len(m.Servers))
	for _, s := range m.Servers {
		snaps = append(snaps, s.Snapshot)
	}
	want := telemetry.EncodeSnapshot(m.Cluster)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		perm := rng.Perm(len(snaps))
		shuffled := make([]telemetry.Snapshot, len(snaps))
		for i, p := range perm {
			shuffled[i] = snaps[p]
		}
		if got := telemetry.EncodeSnapshot(telemetry.MergeSnapshots(shuffled...)); !bytes.Equal(got, want) {
			t.Fatalf("cluster merge is order-sensitive (perm %v)", perm)
		}
	}
}

// TestClusterManifestDegradedPartial: a crash-mid-stream fault yields a
// partial manifest — the victim becomes a missing-telemetry entry, the
// run does not fail, and the deterministic parts of the manifest agree
// across identical runs.
func TestClusterManifestDegradedPartial(t *testing.T) {
	t.Parallel()
	c := fig7Cluster(t)
	images := ClusterImages(c)
	victim := images[len(images)-1].Label()
	fault := inject.NetFault{Scenario: inject.NetCrashMidStream, AfterChunks: 1}

	run := func() *ClusterManifest {
		res, err := Run(images, degradedOptions(victim, &fault))
		if err != nil {
			t.Fatalf("degraded run failed: %v", err)
		}
		if res.Cluster == nil {
			t.Fatal("degraded run produced no cluster manifest")
		}
		return res.Cluster
	}
	m := run()
	if len(m.Servers) != len(images) {
		t.Fatalf("sections = %d, want %d", len(m.Servers), len(images))
	}
	vs := m.Server(victim)
	if vs == nil || !vs.Missing {
		t.Fatalf("victim %s not marked missing: %+v", victim, vs)
	}
	if !reflect.DeepEqual(m.Skew.MissingTelemetry, []string{victim}) {
		t.Fatalf("missing telemetry = %v, want [%s]", m.Skew.MissingTelemetry, victim)
	}
	for _, s := range m.Servers {
		if s.Server != victim && s.Missing {
			t.Errorf("surviving server %s marked missing", s.Server)
		}
	}
	if m.Skew.Straggler == victim || m.Skew.Straggler == "" {
		t.Errorf("straggler attribution broken under degradation: %+v", m.Skew)
	}

	// Determinism: the structural content — sections, missing set, and
	// every merged counter (integer totals) — cannot depend on failure
	// timing. (Durations and float sums legitimately vary per run.)
	m2 := run()
	if !reflect.DeepEqual(m.Cluster.Counters, m2.Cluster.Counters) {
		t.Errorf("merged cluster counters diverge:\n%+v\n%+v", m.Cluster.Counters, m2.Cluster.Counters)
	}
	if !reflect.DeepEqual(m.Skew.MissingTelemetry, m2.Skew.MissingTelemetry) {
		t.Errorf("missing sets diverge: %v vs %v", m.Skew.MissingTelemetry, m2.Skew.MissingTelemetry)
	}
	for i := range m.Servers {
		a, b := m.Servers[i], m2.Servers[i]
		if a.Server != b.Server || a.Missing != b.Missing ||
			a.InodesScanned != b.InodesScanned || a.Frames != b.Frames || a.Bytes != b.Bytes {
			t.Errorf("section %d diverges:\n%+v\n%+v", i, a, b)
		}
	}
}

// TestClusterManifestInProcess: the in-process path builds the same
// per-server shape (no frames, but full scan counters and spans), so
// cluster observability does not depend on deployment mode.
func TestClusterManifestInProcess(t *testing.T) {
	t.Parallel()
	c := fig7Cluster(t)
	res, err := Run(ClusterImages(c), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Cluster
	if m == nil || len(m.Servers) != len(ClusterImages(c)) {
		t.Fatalf("in-process cluster manifest wrong shape: %+v", m)
	}
	for _, s := range m.Servers {
		if s.Missing {
			t.Errorf("in-process server %s missing", s.Server)
		}
		if s.Span == nil || !strings.HasPrefix(s.Span.Name, "scan:") {
			t.Errorf("server %s span absent or unnamed: %+v", s.Server, s.Span)
		}
	}
	if got, want := m.Cluster.Counter("scanner_inodes_scanned_total"), res.Scan.InodesScanned; got != want {
		t.Errorf("merged inodes %d != ScanStats %d", got, want)
	}
}
