package inject

import (
	"errors"
	"sync"
)

// ErrScanInjected marks a scan failure introduced by a ScanFault — the
// online analogue of ErrScannerCrash on the wire path.
var ErrScanInjected = errors.New("injected scan fault")

// ScanFault injects deterministic failures into an online tracker's scan
// seams (online.Tracker.InjectScanFault): one attempt per inode a round
// re-parses, one per image a rescan sweeps. It is the test and soak hook
// for the tracker's all-or-nothing feed consumption — a failed scan must
// leave the failing server's dirty feed intact so the next round retries
// the same work, while other servers' commits stand — and for its
// all-or-nothing rescan.
//
// The fault is deterministic (every FailEvery-th scan attempt fails),
// so soak runs reproduce, and it is safe for concurrent use.
type ScanFault struct {
	// FailEvery fails every Nth scan attempt (1-based); <= 0 disables.
	FailEvery int
	// MaxFailures bounds the total failures (0 = unbounded), so a
	// harness can inject a burst and then let the tracker heal.
	MaxFailures int

	mu       sync.Mutex
	scans    int
	failures int
}

// Tick records one scan attempt and reports whether it should fail.
func (f *ScanFault) Tick() bool {
	if f == nil || f.FailEvery <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.scans++
	if f.MaxFailures > 0 && f.failures >= f.MaxFailures {
		return false
	}
	if f.scans%f.FailEvery == 0 {
		f.failures++
		return true
	}
	return false
}

// Failures reports how many scans have been failed so far.
func (f *ScanFault) Failures() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failures
}
