package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// provenance says where a result file's numbers came from. -compare
// rejects a file without it.
type provenance struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPUModel   string   `json:"cpu_model"`
	Caches     []string `json:"caches"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      int      `json:"trace"`
	Sizes      sizes    `json:"sizes"`
	// Inputs are the sizes of what set-up actually generated.
	Inputs    map[string]int64 `json:"inputs"`
	N         int              `json:"n"`        // timed operations
	TracedN   int              `json:"traced_n"` // traced operations
	Warmups   int              `json:"warmups"`
	RSSReset  bool             `json:"rss_reset"`
	WallS     float64          `json:"wall_s"` // the whole run
	LoadModel string           `json:"load_model"`
}

func (p provenance) valid() bool { return p.GoVersion != "" && p.NProc > 0 && p.N > 0 }

func collectProvenance(cfg runConfig, inputs map[string]int64, n, tracedN int, rssReset bool, wallS float64) provenance {
	return provenance{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Caches:     cpuCaches(),
		Seed:       cfg.Seed,
		Seconds:    cfg.Seconds,
		Trace:      cfg.Trace,
		Sizes:      cfg.Sizes,
		Inputs:     inputs,
		N:          n,
		TracedN:    tracedN,
		Warmups:    cfg.Sizes.Warmups,
		RSSReset:   rssReset,
		WallS:      wallS,
		LoadModel:  "closed loop, one client, one operation in flight",
	}
}

// gitCommit asks git about the working directory only; the ceiling
// keeps it from walking up into some enclosing repository.
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuCaches lists cpu0's caches as "L<level> <type> <size>".
func cpuCaches() []string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	out := []string{}
	for _, d := range dirs {
		field := func(name string) string {
			raw, _ := os.ReadFile(filepath.Join(d, name))
			return strings.TrimSpace(string(raw))
		}
		out = append(out, "L"+field("level")+" "+field("type")+" "+field("size"))
	}
	return out
}

// resetPeakRSS resets the process's resident-set high-water mark so the
// timed phase's peak excludes set-up. It reports false where the kernel
// or a sandbox refuses; peak_rss_mib then covers the whole process.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB reads VmHWM, the resident-set high-water mark. It includes
// the resident input images.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
