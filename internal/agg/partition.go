package agg

import (
	"faultyrank/internal/graph"
	"faultyrank/internal/lustre"
	"faultyrank/internal/par"
)

// PartitionOf maps a FID onto one of k rank partitions by folding the
// interner's full 64-bit FID hash (hashFID), so the partition key is a
// pure function of the FID — deterministic across runs, machines, and
// worker counts, independent of the GID numbering — and spreads evenly
// over any k.
func PartitionOf(f lustre.FID, k int) int {
	return int(hashFID(f) % uint64(k))
}

// PartitionOwners computes the owners map of the unified graph's GID
// space for a k-way partitioned rank execution (the input of
// graph.PartitionPlan). Both the batch aggregator and the incremental
// delta builder populate FIDs, so the owners map is available on either
// path.
func (u *Unified) PartitionOwners(k int) []uint16 {
	owners := make([]uint16, len(u.FIDs))
	par.ForRange(len(u.FIDs), par.DefaultWorkers(), func(lo, hi int) {
		for g := lo; g < hi; g++ {
			owners[g] = uint16(PartitionOf(u.FIDs[g], k))
		}
	})
	return owners
}

// BuildPartitioned materializes the bidirected graph and its k-way
// partition plan in one call — the per-partition CSRs with their
// boundary cut that the distributed rank stage executes over.
func (u *Unified) BuildPartitioned(k, workers int) (*graph.Bidirected, *graph.Plan) {
	b := u.Build(workers)
	plan := graph.PartitionPlan(b, u.PartitionOwners(k), k, workers)
	return b, plan
}
