// Package faultyrank is a from-scratch Go implementation of FaultyRank
// (Kamat, Islam, Zheng, Dai — IPDPS 2023): a graph-based parallel file
// system checker. PFS metadata (directories, files, stripe objects and
// their DIRENT/LinkEA/LOVEA/filter-fid pointers) is modelled as a
// directed graph; an iterative, PageRank-style algorithm assigns every
// object an ID-credibility and a Property-credibility score, and the
// fields whose scores collapse are reported as the root cause of an
// inconsistency together with the most promising repair.
//
// The repository contains the complete system of the paper plus every
// substrate its evaluation needs, each in its own package:
//
//	internal/core      the FaultyRank algorithm (ranks, detection, repairs)
//	internal/graph     CSR metadata graphs with paired/unpaired edges
//	internal/ldiskfs   ext4/ldiskfs-style binary disk images
//	internal/lustre    simulated Lustre cluster (MDT + OSTs, FIDs, EAs)
//	internal/scanner   per-server raw-image metadata scanners
//	internal/agg       partial-graph aggregation and FID→GID remap
//	internal/wire      TCP framing, bulk transfer, per-object RPCs
//	internal/checker   the end-to-end pipeline with stage timings
//	internal/repair    repair application + lost+found reconstruction
//	internal/lfsck     the rule-based LFSCK baseline (Table I semantics)
//	internal/inject    the eight Fig. 7 fault-injection scenarios
//	internal/workload  LANL-style namespaces, aging, SNAP-like graphs
//	internal/rmat      Graph500 R-MAT generation
//	internal/bench     harnesses regenerating every paper table/figure
//
// This file re-exports the primary entry points so in-module consumers
// (cmd/, examples/) and tests have one import surface.
package faultyrank

import (
	"faultyrank/internal/checker"
	"faultyrank/internal/core"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lfsck"
	"faultyrank/internal/lustre"
	"faultyrank/internal/repair"
)

// Core algorithm surface.
type (
	// Options configures the FaultyRank iteration and detection.
	Options = core.Options
	// RankResult holds the converged credibility scores.
	RankResult = core.Result
)

// DefaultOptions returns the paper's configuration (ε=0.1, unpaired
// weight 1/10, threshold 0.1×N-normalised).
func DefaultOptions() Options { return core.DefaultOptions() }

// Cluster simulation surface.
type (
	// Cluster is a simulated Lustre instance (one MDT + N OSTs).
	Cluster = lustre.Cluster
	// ClusterConfig configures NewCluster.
	ClusterConfig = lustre.Config
	// FID is a Lustre file identifier.
	FID = lustre.FID
	// Image is an ldiskfs-style server disk image.
	Image = ldiskfs.Image
)

// NewCluster builds an empty simulated cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return lustre.NewCluster(cfg) }

// DefaultClusterConfig mirrors the paper's testbed (8 OSTs, 64 KiB
// stripes, stripe_count -1).
func DefaultClusterConfig() ClusterConfig { return lustre.DefaultConfig() }

// Checker pipeline surface.
type (
	// CheckOptions configures a full pipeline run.
	CheckOptions = checker.Options
	// CheckResult is the pipeline outcome (timings, graph, findings).
	CheckResult = checker.Result
	// Finding is one classified inconsistency with repairs.
	Finding = checker.Finding
)

// Check runs the full FaultyRank pipeline (scan → aggregate → rank →
// classify) over server images ordered MDT-first.
func Check(images []*Image, opt CheckOptions) (*CheckResult, error) {
	return checker.Run(images, opt)
}

// CheckCluster is Check over a simulated cluster's images.
func CheckCluster(c *Cluster, opt CheckOptions) (*CheckResult, error) {
	return checker.Run(checker.ClusterImages(c), opt)
}

// DefaultCheckOptions returns the paper-faithful pipeline configuration.
func DefaultCheckOptions() CheckOptions { return checker.DefaultOptions() }

// Repair applies a check result's recommended repairs to the images and
// returns the number applied and skipped.
func Repair(images []*Image, res *CheckResult) (applied, skipped int) {
	sum := repair.NewEngine(images, res).Apply(res.Findings)
	return sum.Applied, sum.Skipped
}

// LFSCK surface (the baseline checker).
type (
	// LFSCKOptions configures the baseline.
	LFSCKOptions = lfsck.Options
	// LFSCKResult is the baseline's action log and timings.
	LFSCKResult = lfsck.Result
)

// RunLFSCK executes the rule-based baseline over server images.
func RunLFSCK(images []*Image, opt LFSCKOptions) (*LFSCKResult, error) {
	return lfsck.Run(images, opt)
}
