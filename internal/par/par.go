// Package par provides the small deterministic parallel-for helpers used
// throughout the FaultyRank code base.
//
// The helpers intentionally favour static range partitioning over work
// stealing: every exported function splits its index space into at most
// `workers` contiguous chunks, which keeps the memory-access pattern of
// the CSR builders sequential per worker and makes results reproducible.
// (The rank kernel hands out its own fixed-width blocks; see
// internal/core/kernel.go.)
package par

import (
	"runtime"
	"sync"
)

// DefaultWorkers returns the default worker count used when a caller passes
// workers <= 0. It is GOMAXPROCS, the number of usable CPUs.
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// clampWorkers normalises a worker request against the problem size.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForRange runs fn over [0, n) split into contiguous chunks, one goroutine
// per chunk. fn receives the half-open range [lo, hi) it owns. ForRange
// returns once all chunks complete. With workers <= 1 (or tiny n) it runs
// inline, avoiding goroutine overhead on small inputs.
func ForRange(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ForEach runs fn(i) for every i in [0, n) using ForRange underneath.
func ForEach(n, workers int, fn func(i int)) {
	ForRange(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ExclusivePrefixSum64 converts counts (length n) into exclusive prefix
// sums in place and returns the grand total. counts[i] becomes the sum of
// the original counts[0..i). The scan is sequential: prefix sums of the
// sizes used in this project (tens of millions of vertices) take only a
// few milliseconds, far below the cost of parallel-scan coordination.
func ExclusivePrefixSum64(counts []int64) int64 {
	var running int64
	for i := range counts {
		c := counts[i]
		counts[i] = running
		running += c
	}
	return running
}
