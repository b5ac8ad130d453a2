package checker

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"faultyrank/internal/inject"
	"faultyrank/internal/telemetry"
	"faultyrank/internal/trace"
)

// TestJournalFaultTimeline is the flight recorder's acceptance path: a
// crash-mid-stream TCP fault run completes degraded and leaves a run
// journal whose coordinator lane records the failure sequence naming
// the victim; the journal survives an FRJR dump-and-reload; and the
// trace render names the victim as culprit with its scan-failed and
// degraded evidence.
func TestJournalFaultTimeline(t *testing.T) {
	ctx, cancel := testCtx(t)
	defer cancel()

	c := fig7Cluster(t)
	images := ClusterImages(c)
	victim := images[len(images)-1].Label()

	fault := &inject.NetFault{Scenario: inject.NetCrashMidStream, AfterChunks: 1}
	res, err := RunContext(ctx, images, degradedOptions(victim, fault))
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if !res.Coverage.Degraded() {
		t.Fatalf("expected degraded coverage, got %+v", res.Coverage)
	}

	// The run's flight record: coordinator lane first, then per-server
	// sections; survivors shipped their sections as wire trailers and the
	// victim's sender-side journal was kept locally.
	if len(res.Journal) < 2 {
		t.Fatalf("journal sections: %d, want coordinator + servers", len(res.Journal))
	}
	coord := res.Journal[0]
	if coord.Server != "coordinator" {
		t.Fatalf("first section %q, want coordinator", coord.Server)
	}
	var sawRun, sawFail, sawDegraded bool
	for _, e := range coord.Events {
		switch e.Kind {
		case "run":
			sawRun = true
		case "scan-failed":
			if e.Attr("server") == victim {
				sawFail = true
			}
		case "degraded":
			if strings.Contains(e.Attr("missing"), victim) {
				sawDegraded = true
			}
		}
	}
	if !sawRun || !sawFail || !sawDegraded {
		t.Fatalf("coordinator lane run=%t scan-failed(%s)=%t degraded=%t:\n%+v",
			sawRun, victim, sawFail, sawDegraded, coord.Events)
	}
	lanes := map[string]bool{}
	for _, s := range res.Journal {
		lanes[s.Server] = true
	}
	if !lanes[victim] {
		t.Fatalf("victim %s has no journal lane: %v", victim, lanes)
	}

	// Auto-dump and reload: the FRJR file round-trips the sections.
	path := filepath.Join(t.TempDir(), "journal.frjr")
	if err := telemetry.WriteJournalFile(path, res.Journal); err != nil {
		t.Fatalf("dump: %v", err)
	}
	sections, err := telemetry.ReadJournalFile(path)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if len(sections) != len(res.Journal) {
		t.Fatalf("reloaded %d sections, want %d", len(sections), len(res.Journal))
	}

	// The rendered timeline names the failing server and shows its
	// failure sequence.
	tl := trace.Build(sections)
	if got := tl.Culprit(); got != victim {
		t.Fatalf("culprit %q, want %q (suspects %+v)", got, victim, tl.Suspects)
	}
	var buf bytes.Buffer
	if err := tl.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"culprit: " + victim,
		"scan-failed",
		"degraded",
		"missing=" + victim,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline render missing %q:\n%s", want, out)
		}
	}
}

// TestJournalCleanRun: a healthy in-process run still produces a
// journal (coordinator + one lane per server) but no suspects.
func TestJournalCleanRun(t *testing.T) {
	c := fig7Cluster(t)
	res, err := RunCluster(c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Journal) != len(ClusterImages(c))+1 {
		t.Fatalf("journal sections: %d, want %d", len(res.Journal), len(ClusterImages(c))+1)
	}
	tl := trace.Build(res.Journal)
	if got := tl.Culprit(); got != "" {
		t.Fatalf("clean run culprit %q (suspects %+v)", got, tl.Suspects)
	}
	// The cluster is clean, so the rank lane records the skip and no
	// iteration.
	var sawMerge, sawSkip, sawIter bool
	for _, e := range res.Journal[0].Events {
		switch {
		case e.Kind == "merge-done":
			sawMerge = true
		case e.Component == "rank" && e.Kind == "skipped":
			sawSkip = true
		case e.Kind == "iteration":
			sawIter = true
		}
	}
	if !sawMerge || !sawSkip || sawIter {
		t.Fatalf("coordinator lane merge-done=%t skipped=%t iteration=%t:\n%+v",
			sawMerge, sawSkip, sawIter, res.Journal[0].Events)
	}
}
