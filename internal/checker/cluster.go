package checker

import (
	"sort"

	"faultyrank/internal/telemetry"
)

// ClusterManifestSchema identifies the cluster-manifest JSON layout.
const ClusterManifestSchema = "faultyrank/cluster-manifest/v1"

// ServerTelemetry is one server's section of the cluster manifest: the
// snapshot and scan span its scanner's registry recorded, plus the
// headline columns the skew analysis and the report timeline derive
// from them.
type ServerTelemetry struct {
	Server string `json:"server"`
	// Missing marks a server whose scan did not succeed — its scanner
	// crashed, stalled, or lost its stream. The section then carries no
	// data; by design this is an entry in the manifest, never a failed
	// run.
	Missing bool `json:"missing,omitempty"`

	// ScanSeconds is the server's scan-span duration — the per-server
	// term whose maximum sets the stage's wall clock.
	ScanSeconds float64 `json:"scan_seconds,omitempty"`
	// Frames and Bytes count the chunk frames this server shipped
	// (zero on the in-process path, which moves no frames).
	Frames int64 `json:"frames,omitempty"`
	Bytes  int64 `json:"bytes,omitempty"`
	// DialRetries counts this server's redials toward the collector.
	DialRetries int64 `json:"dial_retries,omitempty"`
	// StallSeconds is the total time this server spent blocked in frame
	// writes (the wire_frame_write_seconds sum) — backpressure from the
	// aggregator or the network, the usual straggler signature.
	StallSeconds float64 `json:"stall_seconds,omitempty"`
	// InodesScanned is the server's own sweep tally.
	InodesScanned int64 `json:"inodes_scanned,omitempty"`

	// Snapshot is the full per-server instrument snapshot, gauges
	// labeled with the server id; Span is its scan-phase tree.
	Snapshot telemetry.Snapshot  `json:"snapshot,omitempty"`
	Span     *telemetry.SpanNode `json:"span,omitempty"`
}

// ClusterSkew is the straggler analysis over the servers that produced
// telemetry: which server set the wall clock, which finished first, and
// how uneven the stage was.
type ClusterSkew struct {
	// Straggler names the slowest scan span (ties broken toward the
	// earlier server in canonical order, keeping the report
	// deterministic).
	Straggler string `json:"straggler,omitempty"`
	// Fastest names the quickest scan span.
	Fastest        string  `json:"fastest,omitempty"`
	SlowestSeconds float64 `json:"slowest_seconds,omitempty"`
	FastestSeconds float64 `json:"fastest_seconds,omitempty"`
	MeanSeconds    float64 `json:"mean_seconds,omitempty"`
	// StragglerRatio is slowest/mean — 1.0 for a perfectly even stage;
	// the paper's parallel-scan speedup erodes as this grows.
	StragglerRatio float64 `json:"straggler_ratio,omitempty"`
	// MissingTelemetry lists the servers excluded from the analysis
	// because their scan did not succeed.
	MissingTelemetry []string `json:"missing_telemetry,omitempty"`
}

// ClusterManifest is the cluster-scoped view of one run: a section per
// server, the merged cluster totals (counters summed, gauges labeled
// max, histograms bucket-wise), and the skew report.
type ClusterManifest struct {
	Schema  string            `json:"schema"`
	Servers []ServerTelemetry `json:"servers"`
	// Cluster is the merge of every present server snapshot — the
	// cluster-wide totals, attribution labels on the gauge maxima.
	Cluster telemetry.Snapshot `json:"cluster"`
	Skew    ClusterSkew        `json:"skew"`
}

// Server returns the named section (nil when absent).
func (m *ClusterManifest) Server(label string) *ServerTelemetry {
	if m == nil {
		return nil
	}
	for i := range m.Servers {
		if m.Servers[i].Server == label {
			return &m.Servers[i]
		}
	}
	return nil
}

// BuildClusterManifest assembles the cluster manifest from the run's
// server labels and the sections of the servers that produced telemetry;
// only a section's Server, Snapshot and Span are read. Every label gets
// a section — present ones carry their snapshot and derived columns,
// the rest are marked Missing — so a degraded run yields a
// deterministic partial manifest instead of an error. Sections follow
// the given label order (the run's canonical MDT-first order).
func BuildClusterManifest(labels []string, sections []ServerTelemetry) *ClusterManifest {
	byServer := make(map[string]*ServerTelemetry, len(sections))
	for i := range sections {
		if t := &sections[i]; t.Server != "" {
			byServer[t.Server] = t
		}
	}
	m := &ClusterManifest{Schema: ClusterManifestSchema}
	var present []telemetry.Snapshot
	for _, label := range labels {
		t := byServer[label]
		if t == nil {
			m.Servers = append(m.Servers, ServerTelemetry{Server: label, Missing: true})
			m.Skew.MissingTelemetry = append(m.Skew.MissingTelemetry, label)
			continue
		}
		sec := ServerTelemetry{
			Server:        label,
			Frames:        t.Snapshot.Counter("wire_frames_sent_total"),
			Bytes:         t.Snapshot.Counter("wire_bytes_sent_total"),
			DialRetries:   t.Snapshot.Counter("wire_dial_retries_total"),
			InodesScanned: t.Snapshot.Counter("scanner_inodes_scanned_total"),
			Snapshot:      t.Snapshot,
			Span:          t.Span,
		}
		if h, ok := t.Snapshot.Histogram("wire_frame_write_seconds"); ok {
			sec.StallSeconds = h.Sum
		}
		if t.Span != nil {
			sec.ScanSeconds = t.Span.Seconds
		}
		m.Servers = append(m.Servers, sec)
		present = append(present, t.Snapshot)
	}
	m.Cluster = telemetry.MergeSnapshots(present...)

	var total float64
	n := 0
	for i := range m.Servers {
		s := &m.Servers[i]
		if s.Missing {
			continue
		}
		total += s.ScanSeconds
		n++
		if m.Skew.Straggler == "" || s.ScanSeconds > m.Skew.SlowestSeconds {
			m.Skew.Straggler, m.Skew.SlowestSeconds = s.Server, s.ScanSeconds
		}
		if m.Skew.Fastest == "" || s.ScanSeconds < m.Skew.FastestSeconds {
			m.Skew.Fastest, m.Skew.FastestSeconds = s.Server, s.ScanSeconds
		}
	}
	if n > 0 {
		m.Skew.MeanSeconds = total / float64(n)
		if m.Skew.MeanSeconds > 0 {
			m.Skew.StragglerRatio = m.Skew.SlowestSeconds / m.Skew.MeanSeconds
		}
	}
	sort.Strings(m.Skew.MissingTelemetry)
	return m
}
