package checker

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"faultyrank/internal/inject"
)

// testTimeout is a scan deadline inside the test binary's own (minus
// grace for cleanup), so a regression that hangs the network path fails
// with the checker's context error instead of a test-suite timeout.
func testTimeout(t *testing.T) time.Duration {
	t.Helper()
	if dl, ok := t.Deadline(); ok {
		return time.Until(dl) - 5*time.Second
	}
	return 60 * time.Second
}

// degradedOptions is the shared TCP fault-test configuration: a tight
// stage deadline (the stall scenario waits it out in full), chunks small
// enough that every stream has several (so mid-stream faults fire), and
// degraded completion on.
func degradedOptions(victim string, fault *inject.NetFault) Options {
	opt := DefaultOptions()
	opt.UseTCP = true
	opt.ChunkSize = 8
	opt.ScanTimeout = 1500 * time.Millisecond
	opt.AllowDegraded = true
	if fault != nil {
		opt.NetFaults = map[string]*inject.NetFault{victim: fault}
	}
	return opt
}

// TestTCPDegradedScenarios drives the TCP checker through every network
// fault scenario with one OST's stream injected. Each run must complete
// (never hang), name exactly the lost server in Coverage.Missing, stay
// deterministic across identical runs, and render a degraded report.
func TestTCPDegradedScenarios(t *testing.T) {
	scenarios := []inject.NetFault{
		{Scenario: inject.NetCrashBeforeConnect},
		{Scenario: inject.NetCrashMidStream, AfterChunks: 1},
		{Scenario: inject.NetStallMidStream, AfterChunks: 1},
		{Scenario: inject.NetCorruptFrame, AfterChunks: 1},
	}
	for i := range scenarios {
		fault := scenarios[i]
		t.Run(fault.Scenario.String(), func(t *testing.T) {
			t.Parallel()

			c := fig7Cluster(t)
			images := ClusterImages(c)
			victim := images[len(images)-1].Label()

			run := func() *Result {
				res, err := Run(images, degradedOptions(victim, &fault))
				if err != nil {
					t.Fatalf("degraded run failed: %v", err)
				}
				return res
			}
			res := run()
			if !res.Coverage.Degraded() {
				t.Fatal("fault injected but coverage reports complete")
			}
			if len(res.Coverage.Missing) != 1 || res.Coverage.Missing[0] != victim {
				t.Fatalf("missing = %v, want [%s]", res.Coverage.Missing, victim)
			}
			if res.Coverage.Complete() != len(images)-1 {
				t.Fatalf("complete = %d, want %d", res.Coverage.Complete(), len(images)-1)
			}
			if len(res.Net.StreamErrors) == 0 {
				t.Error("no stream errors recorded for the injected fault")
			}

			// Identical degraded runs must agree exactly: graph shape,
			// coverage, and findings cannot depend on failure timing.
			res2 := run()
			if res.Stats != res2.Stats {
				t.Errorf("graph stats diverge across runs: %+v vs %+v", res.Stats, res2.Stats)
			}
			if !reflect.DeepEqual(res.Coverage, res2.Coverage) {
				t.Errorf("coverage diverges: %+v vs %+v", res.Coverage, res2.Coverage)
			}
			if len(res.Findings) != len(res2.Findings) {
				t.Fatalf("finding counts diverge: %d vs %d", len(res.Findings), len(res2.Findings))
			}
			for j := range res.Findings {
				a, b := res.Findings[j], res2.Findings[j]
				if a.Kind != b.Kind || a.FID != b.FID {
					t.Errorf("finding %d diverges: %+v vs %+v", j, a, b)
				}
			}

			var buf bytes.Buffer
			if err := res.WriteReport(&buf, false); err != nil {
				t.Fatal(err)
			}
			report := buf.String()
			if !strings.Contains(report, "DEGRADED") {
				t.Error("report does not flag degraded coverage")
			}
			if !strings.Contains(report, victim) {
				t.Errorf("report does not name the lost server %s", victim)
			}
		})
	}
}

// TestTCPStrictFaultFails: without AllowDegraded the same injected
// crash must abort the run with an error — and still not hang.
func TestTCPStrictFaultFails(t *testing.T) {
	t.Parallel()

	c := fig7Cluster(t)
	images := ClusterImages(c)
	victim := images[len(images)-1].Label()

	opt := degradedOptions(victim, &inject.NetFault{Scenario: inject.NetCrashBeforeConnect})
	opt.AllowDegraded = false
	_, err := Run(images, opt)
	if err == nil {
		t.Fatal("strict run swallowed a crashed scanner")
	}
	if !errors.Is(err, inject.ErrScannerCrash) {
		t.Fatalf("error does not identify the crash: %v", err)
	}
}

// TestTCPDegradedAllLost: when every stream is lost, degraded mode must
// still refuse to report on an empty graph.
func TestTCPDegradedAllLost(t *testing.T) {
	t.Parallel()

	c := fig7Cluster(t)
	images := ClusterImages(c)
	faults := make(map[string]*inject.NetFault, len(images))
	for _, img := range images {
		faults[img.Label()] = &inject.NetFault{Scenario: inject.NetCrashBeforeConnect}
	}
	opt := degradedOptions("", nil)
	opt.NetFaults = faults
	if _, err := Run(images, opt); err == nil {
		t.Fatal("run reported on a graph with zero surviving servers")
	}
}

// TestTCPCleanDegradedMatchesStrict: with no fault injected, a degraded
// run is byte-for-byte the strict run — full coverage, same graph.
func TestTCPCleanDegradedMatchesStrict(t *testing.T) {
	t.Parallel()

	c := fig7Cluster(t)
	if _, err := inject.Inject(c, inject.DanglingObjectID, fig7Target); err != nil {
		t.Fatal(err)
	}
	images := ClusterImages(c)

	strict := degradedOptions("", nil)
	strict.AllowDegraded = false
	sres, err := Run(images, strict)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := Run(images, degradedOptions("", nil))
	if err != nil {
		t.Fatal(err)
	}
	if dres.Coverage.Degraded() {
		t.Fatalf("clean degraded run lost servers: %v", dres.Coverage.Missing)
	}
	if sres.Stats != dres.Stats {
		t.Errorf("graph stats diverge: %+v vs %+v", sres.Stats, dres.Stats)
	}
	if len(sres.Findings) != len(dres.Findings) {
		t.Fatalf("finding counts diverge: %d vs %d", len(sres.Findings), len(dres.Findings))
	}
}

// TestDegradedSameOnBothTransports: the scan stage has one failure
// model and one way to build a server's telemetry. A clean run, and one
// where a server crashes before its scan, leave an in-process run and a
// TCP run with the same coverage, findings and stream errors, the same
// cluster-manifest servers and non-wire counters, and the same journal
// lanes with the same scanner events.
func TestDegradedSameOnBothTransports(t *testing.T) {
	t.Parallel()
	c := fig7Cluster(t)
	images := ClusterImages(c)
	victim := images[len(images)-1].Label()
	for _, tc := range []struct {
		name    string
		fault   *inject.NetFault
		missing []string
	}{
		{"clean", nil, nil},
		{"crash-before-connect", &inject.NetFault{Scenario: inject.NetCrashBeforeConnect}, []string{victim}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tcp := degradedOptions(victim, tc.fault)
			inp := tcp
			inp.UseTCP = false

			tres, err := Run(images, tcp)
			if err != nil {
				t.Fatalf("TCP: %v", err)
			}
			ires, err := Run(images, inp)
			if err != nil {
				t.Fatalf("in process: %v", err)
			}
			if !reflect.DeepEqual(ires.Coverage, tres.Coverage) {
				t.Errorf("coverage: in process %+v, TCP %+v", ires.Coverage, tres.Coverage)
			}
			if !reflect.DeepEqual(ires.Coverage.Missing, tc.missing) {
				t.Errorf("missing = %v, want %v", ires.Coverage.Missing, tc.missing)
			}
			if !reflect.DeepEqual(ires.Findings, tres.Findings) {
				t.Errorf("findings diverge: in process %d, TCP %d", len(ires.Findings), len(tres.Findings))
			}
			if !reflect.DeepEqual(ires.Net.StreamErrors, tres.Net.StreamErrors) {
				t.Errorf("stream errors: in process %q, TCP %q", ires.Net.StreamErrors, tres.Net.StreamErrors)
			}
			if tc.fault == nil {
				if len(ires.Net.StreamErrors) != 0 {
					t.Errorf("clean run stream errors = %q", ires.Net.StreamErrors)
				}
			} else if len(ires.Net.StreamErrors) != 1 || !strings.HasPrefix(ires.Net.StreamErrors[0], "scanner "+victim+": ") {
				t.Errorf("stream errors = %q, want one naming scanner %s", ires.Net.StreamErrors, victim)
			}
			if got, want := transportView(tres), transportView(ires); !reflect.DeepEqual(got, want) {
				t.Errorf("telemetry diverges:\nTCP        %+v\nin process %+v", got, want)
			}
		})
	}
}

// transportView is what a run's telemetry must agree on across
// transports: each manifest section's server, Missing flag and non-wire
// counters, and each journal lane's server and scanner event kinds, in
// order.
func transportView(res *Result) []string {
	var out []string
	for _, s := range res.Cluster.Servers {
		line := fmt.Sprintf("section %s missing=%t", s.Server, s.Missing)
		for _, c := range s.Snapshot.Counters {
			if !strings.HasPrefix(c.Name, "wire_") {
				line += fmt.Sprintf(" %s=%d", c.Name, c.Value)
			}
		}
		out = append(out, line)
	}
	for _, lane := range res.Journal[1:] {
		line := "lane " + lane.Server
		for _, e := range lane.Events {
			if e.Component == "scanner" {
				line += " " + e.Kind
			}
		}
		out = append(out, line)
	}
	return out
}

// TestInProcessStrictCrashFails: without AllowDegraded, a server that
// crashes before its scan fails an in-process run as it fails a TCP one.
func TestInProcessStrictCrashFails(t *testing.T) {
	t.Parallel()
	c := fig7Cluster(t)
	images := ClusterImages(c)
	opt := degradedOptions(images[len(images)-1].Label(), &inject.NetFault{Scenario: inject.NetCrashBeforeConnect})
	opt.UseTCP = false
	opt.AllowDegraded = false
	if _, err := Run(images, opt); !errors.Is(err, inject.ErrScannerCrash) {
		t.Fatalf("err = %v, want %v", err, inject.ErrScannerCrash)
	}
}

// TestInProcessScanTimeout: ScanTimeout bounds the in-process scan stage
// too; a deadline no scan can meet fails the run.
func TestInProcessScanTimeout(t *testing.T) {
	t.Parallel()
	c := fig7Cluster(t)
	opt := DefaultOptions()
	opt.ScanTimeout = time.Nanosecond
	if _, err := Run(ClusterImages(c), opt); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want %v", err, context.DeadlineExceeded)
	}
}
