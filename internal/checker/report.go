package checker

import (
	"fmt"
	"io"
	"strings"
)

// timelineBarWidth is the character budget of a per-server phase bar.
const timelineBarWidth = 30

// writeTimeline renders the cluster manifest's per-server section as a
// text timeline: one bar per server scaled to the slowest scan span,
// annotated with the per-server columns, and the straggler attribution
// line. Rendered only when a cluster manifest exists (a run with a scan
// stage) — hand-built results keep their report unchanged.
func writeTimeline(w io.Writer, m *ClusterManifest) {
	if m == nil || len(m.Servers) == 0 {
		return
	}
	fmt.Fprintln(w, "per-server scan timeline:")
	wide := 0
	for _, s := range m.Servers {
		if len(s.Server) > wide {
			wide = len(s.Server)
		}
	}
	for _, s := range m.Servers {
		if s.Missing {
			fmt.Fprintf(w, "  %-*s  [telemetry missing — stream lost]\n", wide, s.Server)
			continue
		}
		cells := 0
		if m.Skew.SlowestSeconds > 0 {
			cells = int(s.ScanSeconds / m.Skew.SlowestSeconds * timelineBarWidth)
		}
		if cells < 1 {
			cells = 1
		}
		bar := strings.Repeat("█", cells) + strings.Repeat("·", timelineBarWidth-cells)
		fmt.Fprintf(w, "  %-*s  %s %8.3fs  %d inodes", wide, s.Server, bar, s.ScanSeconds, s.InodesScanned)
		if s.Frames > 0 {
			fmt.Fprintf(w, ", %d frames, %d B", s.Frames, s.Bytes)
		}
		if s.DialRetries > 0 {
			fmt.Fprintf(w, ", %d redials", s.DialRetries)
		}
		if s.StallSeconds > 0 {
			fmt.Fprintf(w, ", %.3fs stalled", s.StallSeconds)
		}
		fmt.Fprintln(w)
	}
	if sk := m.Skew; sk.Straggler != "" {
		fmt.Fprintf(w, "  straggler: %s at %.3fs (%.2fx the %.3fs mean; fastest %s at %.3fs)\n",
			sk.Straggler, sk.SlowestSeconds, sk.StragglerRatio, sk.MeanSeconds,
			sk.Fastest, sk.FastestSeconds)
	}
	if len(m.Skew.MissingTelemetry) > 0 {
		fmt.Fprintf(w, "  missing telemetry: %s\n", strings.Join(m.Skew.MissingTelemetry, " "))
	}
}

// WriteReport renders a human-readable account of a checker run: the
// graph summary, the paper's stage timings, and every finding with its
// recommended repairs. Verbose additionally dumps the rank scores of
// the suspect vertices (the paper's Fig. 7 "example plot" data).
func (r *Result) WriteReport(w io.Writer, verbose bool) error {
	st := r.Stats
	if _, err := fmt.Fprintf(w,
		"metadata graph: %d vertices, %d edges (%d paired, %d unpaired), %d phantom FIDs\n",
		st.Vertices, st.Edges, st.PairedEdges, st.UnpairedEdges,
		len(r.Unified.Phantoms())); err != nil {
		return err
	}
	fmt.Fprintf(w, "timing: T_scan=%.3fs  T_graph=%.3fs  T_FR=%.3fs  total=%.3fs\n",
		r.TScan.Seconds(), r.TGraph.Seconds(), r.TRank.Seconds(), r.Total().Seconds())
	if r.Rank.Skipped {
		fmt.Fprintln(w, "rank: skipped — every relation paired")
	} else {
		fmt.Fprintf(w, "rank: %d iterations, converged=%v\n", r.Rank.Iterations, r.Rank.Converged)
	}

	if r.Coverage.Degraded() {
		fmt.Fprintf(w, "coverage: DEGRADED — %d of %d server(s) merged; missing:",
			r.Coverage.Complete(), r.Coverage.Total)
		for _, s := range r.Coverage.Missing {
			fmt.Fprintf(w, " %s", s)
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w, "  findings below cover surviving servers only; cross-server")
		fmt.Fprintln(w, "  relations into missing servers will appear unpaired")
		for _, e := range r.Net.StreamErrors {
			fmt.Fprintf(w, "  stream error: %s\n", e)
		}
	} else if r.Coverage.Total > 0 {
		fmt.Fprintf(w, "coverage: complete — all %d server(s) merged\n", r.Coverage.Total)
	}
	if r.Net.Frames > 0 || r.Net.DialRetries > 0 {
		fmt.Fprintf(w, "transfer: %d frames, %d bytes, %d dial retries\n",
			r.Net.Frames, r.Net.Bytes, r.Net.DialRetries)
	}
	if r.Scan != (ScanStats{}) {
		fmt.Fprintf(w, "scan: %d inodes, %d dirents, %d edges emitted, %d chunks, %d parse issues\n",
			r.Scan.InodesScanned, r.Scan.DirentsRead, r.Scan.EdgesEmitted,
			r.Scan.Chunks, r.Scan.ParseIssues)
	}
	writeTimeline(w, r.Cluster)

	if len(r.Findings) == 0 {
		fmt.Fprintln(w, "verdict: file system is consistent — no findings")
		return nil
	}
	fmt.Fprintf(w, "verdict: %d finding(s)\n", len(r.Findings))
	for _, f := range r.Findings {
		fmt.Fprintf(w, "  [%v] %v", f.Kind, f.FID)
		if f.Detail != "" {
			fmt.Fprintf(w, "  %s", f.Detail)
		}
		fmt.Fprintln(w)
		for _, a := range f.Repairs {
			fmt.Fprintf(w, "      repair: %v\n", a)
		}
	}
	if verbose {
		fmt.Fprintln(w, "suspect scores (mass-N scale, healthy ≈ 1.0):")
		for _, s := range r.Report.Suspects {
			fmt.Fprintf(w, "  %v %v: %.4f  (peers: %d)\n",
				r.Unified.FID(s.Vertex), s.Field, s.Score, len(s.Peers))
		}
		for _, rel := range r.Report.Ambiguous {
			fmt.Fprintf(w, "  ambiguous: %v -> %v (%v)\n",
				r.Unified.FID(rel.From), r.Unified.FID(rel.To), rel.Kind)
		}
	}
	return nil
}
