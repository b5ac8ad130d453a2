package checker

import (
	"faultyrank/internal/telemetry"
)

// Manifest assembles the machine-readable record of this run: the
// options that shaped it, the phase-timing tree, the full metrics
// snapshot, and the headline results (coverage, findings, convergence).
// The caller serialises it with telemetry.WriteJSON (cmd/faultyrank
// -run-manifest). opt should be the Options the run actually used.
func (r *Result) Manifest(opt Options) *telemetry.RunManifest {
	m := telemetry.NewRunManifest("faultyrank")
	m.Options = map[string]any{
		"workers":          opt.Workers,
		"use_tcp":          opt.UseTCP,
		"chunk_size":       opt.ChunkSize,
		"split_properties": opt.SplitProperties,
		"allow_degraded":   opt.AllowDegraded,
		"scan_timeout_ns":  opt.ScanTimeout.Nanoseconds(),
		"op_timeout_ns":    opt.OpTimeout.Nanoseconds(),
		"epsilon":          opt.Core.Epsilon,
		"max_iterations":   opt.Core.MaxIterations,
		"unpaired_weight":  opt.Core.UnpairedWeight,
		"sink_policy":      opt.Core.SinkPolicy.String(),
		"smoothing":        opt.Core.Smoothing,
		"threshold":        opt.Core.Threshold,
	}
	m.Phases = r.Phases
	m.Metrics = r.Metrics

	byKind := make(map[string]int)
	for _, f := range r.Findings {
		byKind[f.Kind.String()]++
	}
	results := map[string]any{
		"coverage": map[string]any{
			"total":    r.Coverage.Total,
			"complete": r.Coverage.Complete(),
			"missing":  r.Coverage.Missing,
			"degraded": r.Coverage.Degraded(),
		},
		"graph": map[string]any{
			"vertices":       r.Stats.Vertices,
			"edges":          r.Stats.Edges,
			"paired_edges":   r.Stats.PairedEdges,
			"unpaired_edges": r.Stats.UnpairedEdges,
		},
		"findings_total":   len(r.Findings),
		"findings_by_kind": byKind,
		"timings_ns": map[string]int64{
			"scan":  r.TScan.Nanoseconds(),
			"graph": r.TGraph.Nanoseconds(),
			"rank":  r.TRank.Nanoseconds(),
			"total": r.Total().Nanoseconds(),
		},
		"scan": map[string]int64{
			"inodes_scanned": r.Scan.InodesScanned,
			"dirents_read":   r.Scan.DirentsRead,
			"edges_emitted":  r.Scan.EdgesEmitted,
			"parse_issues":   r.Scan.ParseIssues,
			"chunks":         r.Scan.Chunks,
		},
		"net": map[string]any{
			"frames":        r.Net.Frames,
			"bytes":         r.Net.Bytes,
			"dial_retries":  r.Net.DialRetries,
			"stream_errors": r.Net.StreamErrors,
		},
	}
	if r.Cluster != nil {
		results["cluster"] = r.Cluster
	}
	if r.Rank != nil {
		conv := map[string]any{
			"iterations": r.Rank.Iterations,
			"converged":  r.Rank.Converged,
		}
		if r.Rank.Skipped {
			conv["skipped"] = true
		}
		if len(r.Rank.Trace) > 0 {
			conv["trace"] = r.Rank.Trace
		}
		results["convergence"] = conv
	}
	m.Results = results
	return m
}
