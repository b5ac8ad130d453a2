package telemetry

import (
	"os"
	"strconv"
	"strings"
)

// PeakRSS is the calling process's resident-set high-water mark in
// bytes: VmHWM of /proc/self/status, the kernel's own per-process
// account. (wait4's ru_maxrss is not a substitute for a child's: Go
// execs through clone(CLONE_VM|CLONE_VFORK), so Linux folds the parent's
// high-water mark into the child's.) 0 where the platform has no such
// file.
func PeakRSS() int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10
		}
	}
	return 0
}
