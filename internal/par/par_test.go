package par

import (
	"sync/atomic"
	"testing"
)

func TestForRangeCoversAll(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		for _, n := range []int{0, 1, 5, 97, 1000} {
			seen := make([]int32, n)
			ForRange(n, workers, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
		}
	}
}

func TestForRangeChunksAreDisjointAndOrdered(t *testing.T) {
	var total int64
	ForRange(1000, 8, func(lo, hi int) {
		if lo >= hi {
			t.Errorf("empty chunk [%d,%d)", lo, hi)
		}
		atomic.AddInt64(&total, int64(hi-lo))
	})
	if total != 1000 {
		t.Fatalf("covered %d of 1000", total)
	}
}

func TestForEach(t *testing.T) {
	var sum int64
	ForEach(100, 4, func(i int) { atomic.AddInt64(&sum, int64(i)) })
	if sum != 4950 {
		t.Fatalf("sum = %d", sum)
	}
	ForEach(0, 4, func(int) { t.Fatal("called for empty range") })
}

func TestExclusivePrefixSum64(t *testing.T) {
	counts := []int64{3, 0, 5, 2}
	total := ExclusivePrefixSum64(counts)
	if total != 10 {
		t.Fatalf("total = %d", total)
	}
	want := []int64{0, 3, 3, 8}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("prefix[%d] = %d, want %d", i, counts[i], want[i])
		}
	}
	if ExclusivePrefixSum64(nil) != 0 {
		t.Fatal("nil prefix sum nonzero")
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}
