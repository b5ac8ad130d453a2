package agg

import (
	"testing"

	"faultyrank/internal/lustre"
)

// TestPartitionOwnersDeterministic: the owners map is a pure function
// of the FID table — independent of worker counts and stable across
// repeated calls — and every owner is in range.
func TestPartitionOwnersDeterministic(t *testing.T) {
	u := MergeWorkers(randomPartials(11, 4, 200, 600), 4)
	for _, k := range []int{1, 2, 3, 8} {
		owners := u.PartitionOwners(k)
		if len(owners) != u.N() {
			t.Fatalf("k=%d: owners length %d want %d", k, len(owners), u.N())
		}
		again := u.PartitionOwners(k)
		for g := range owners {
			if owners[g] != again[g] {
				t.Fatalf("k=%d: owners[%d] unstable: %d then %d", k, g, owners[g], again[g])
			}
			if int(owners[g]) >= k {
				t.Fatalf("k=%d: owners[%d]=%d out of range", k, g, owners[g])
			}
			if got := PartitionOf(u.FIDs[g], k); got != int(owners[g]) {
				t.Fatalf("k=%d: owners[%d]=%d but PartitionOf=%d", k, g, owners[g], got)
			}
		}
	}
	// k=1 degenerates to all-zero (the legacy single-kernel case).
	for g, o := range u.PartitionOwners(1) {
		if o != 0 {
			t.Fatalf("k=1: owners[%d]=%d", g, o)
		}
	}
}

// TestBuildPartitioned: the one-call materialization covers the whole
// GID space and agrees with the separately built graph.
func TestBuildPartitioned(t *testing.T) {
	u := MergeWorkers(randomPartials(13, 3, 150, 500), 4)
	b, plan := u.BuildPartitioned(3, 4)
	if b.N() != u.N() || plan.N != u.N() || plan.K != 3 {
		t.Fatalf("BuildPartitioned shape: graph N=%d plan N=%d K=%d unified N=%d", b.N(), plan.N, plan.K, u.N())
	}
	total := 0
	for _, sub := range plan.Parts {
		total += sub.NLocal()
	}
	if total != u.N() {
		t.Fatalf("partitions own %d of %d vertices", total, u.N())
	}
}

// TestPartitionOfBalanced: the partition key folds the full FID hash,
// so every partition gets its share for any k — including k that does
// not divide a power of two and k above 64, which a reduced 6-bit shard
// index loaded double or left empty.
func TestPartitionOfBalanced(t *testing.T) {
	const n = 10000
	for _, k := range []int{3, 48, 128} {
		load := make([]int, k)
		for i := 0; i < n; i++ {
			// OST-object-shaped FIDs: a few sequences, dense object ids.
			load[PartitionOf(lustre.FID{Seq: lustre.OSTSeqBase + uint64(i%8), Oid: uint32(i / 8)}, k)]++
		}
		for p, c := range load {
			if c < n/(2*k) || c > 2*n/k {
				t.Fatalf("k=%d: partition %d holds %d of %d FIDs (mean %d)", k, p, c, n, n/k)
			}
		}
	}
}
