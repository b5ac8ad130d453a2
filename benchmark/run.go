package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"
)

// sizes fixes every workload's input size and the run's phase counts.
type sizes struct {
	Scale string `json:"scale"`
	// MDTInodes is the aging target of cold_check_tcp and online_delta.
	MDTInodes int64 `json:"mdt_inodes"`
	// RMATScale/RMATEdgeFactor are rank_rmat's Graph500 parameters.
	RMATScale      int `json:"rmat_scale"`
	RMATEdgeFactor int `json:"rmat_edge_factor"`
	// FaultBackground is fault_repair's aged background, in MDT inodes;
	// FaultRegions one-fault regions of FilesPerRegion files lie on it.
	FaultBackground int64 `json:"fault_background_mdt_inodes"`
	FaultRegions    int   `json:"fault_regions"`
	FilesPerRegion  int   `json:"files_per_region"`
	// Setups is how often set-up is repeated (setup_s is their median),
	// Warmups the untimed operations after each, MinOps the fewest timed
	// operations, TracedOps the fewest traced ones, ProbeOps the
	// partition probe's.
	Setups    int `json:"setups"`
	Warmups   int `json:"warmups"`
	MinOps    int `json:"min_ops"`
	TracedOps int `json:"traced_ops"`
	ProbeOps  int `json:"probe_ops"`
}

// scales: "full" is what BENCHMARK.json measures, sized so one run fits
// the driver's time cap on the 2-core reference host; "smoke" is what
// the tests run.
var scales = map[string]sizes{
	"full": {Scale: "full", MDTInodes: 24_000, RMATScale: 16, RMATEdgeFactor: 8,
		FaultBackground: 6_000, FaultRegions: 256, FilesPerRegion: 6,
		Setups: 3, Warmups: 3, MinOps: 20, TracedOps: 5, ProbeOps: 3},
	"smoke": {Scale: "smoke", MDTInodes: 1_000, RMATScale: 12, RMATEdgeFactor: 8,
		FaultBackground: 500, FaultRegions: 8, FilesPerRegion: 6,
		Setups: 1, Warmups: 1, MinOps: 5, TracedOps: 2, ProbeOps: 1},
}

func newBench(name string) (bench, error) {
	switch name {
	case "cold_check_tcp":
		return &coldCheck{}, nil
	case "rank_rmat":
		return &rankRMAT{}, nil
	case "online_delta":
		return &onlineDelta{}, nil
	case "fault_repair":
		return &faultRepair{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// runConfig is one run's request.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64 // how long each measured phase lasts
	// Trace selects the phases: 0 = untraced only (end-to-end metrics),
	// 1 = untraced for half of Seconds then traced for the other half
	// (per-layer metrics), 2 = untraced for Seconds then traced for half
	// of it (both sets).
	Trace int
	Sizes sizes
	Log   io.Writer
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// distribution describes result_s beyond its median.
type distribution struct {
	N       int     `json:"n"`
	Q1      float64 `json:"q1"`
	Median  float64 `json:"median"`
	Q3      float64 `json:"q3"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
}

// runResult is one run's result file.
type runResult struct {
	Workload   string     `json:"workload"`
	Provenance provenance `json:"provenance"`
	Correct    bool       `json:"correct"`
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	// FailedOpsShare is failed ÷ attempted: operations that returned an
	// error or failed the workload's oracle.
	FailedOpsShare float64                `json:"failed_ops_share"`
	Failures       []string               `json:"failures,omitempty"`
	ResultS        distribution           `json:"result_s_distribution"`
	EndToEnd       map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer       map[string]metricValue `json:"per_layer,omitempty"`
	// LayerSelfS is the median self time per layer over the traced
	// operations' spans.
	LayerSelfS map[string]float64 `json:"layer_self_s,omitempty"`

	spans []span
}

// runWorkload takes one workload through set-up, warm-up, the untraced
// timed phase and the traced phase. An error means set-up or warm-up
// failed — there is nothing to report; failures of measured operations
// are counted in the result instead.
func runWorkload(cfg runConfig) (*runResult, error) {
	start := time.Now()
	sz := cfg.Sizes
	res := &runResult{Workload: cfg.Workload}

	// Set-up, repeated so its time can be reported as a median. Each
	// repetition regenerates the inputs from the seed and runs the
	// warm-ups (the first operations are slow: page faults, GC heap
	// sizing); the last one is measured on.
	var w bench
	var setups []float64
	for i := 0; i < sz.Setups; i++ {
		t0 := time.Now()
		var err error
		if w, err = newBench(cfg.Workload); err != nil {
			return nil, err
		}
		if err := w.setup(cfg.Seed, sz); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.Workload, err)
		}
		for j := 0; j < sz.Warmups; j++ {
			if _, err := w.op(); err != nil {
				return nil, fmt.Errorf("%s warm-up %d: %w", cfg.Workload, j, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupS := median(setups)

	untracedS, tracedS := cfg.Seconds, 0.0
	minOps := sz.MinOps
	switch cfg.Trace {
	case 1:
		untracedS, tracedS = cfg.Seconds/2, cfg.Seconds/2
		minOps = max(sz.MinOps/2, 1)
	case 2:
		tracedS = cfg.Seconds / 2
	}

	// Untraced timed phase. Earlier set-ups' garbage is returned first
	// so the high-water mark is this phase's own.
	runtime.GC()
	debug.FreeOSMemory()
	rssReset := resetPeakRSS()
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	ops := res.measure(cfg.Log, "untraced", minOps, untracedS, w.op)
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	peakMiB := peakRSSMiB()

	results := column(ops, "result_s")
	q1, q2, q3 := quartiles(results)
	tailS, tailPct := tail(results)
	res.ResultS = distribution{N: len(results), Q1: q1, Median: q2, Q3: q3, Tail: tailS, TailPct: tailPct}
	// result_s is the lower quartile, not the median: on the shared
	// reference host neighbours slow stretches of a run by a tenth or
	// more, which moves the upper half of the distribution and the median
	// with it (spread between identical runs 0.12) but the lower quartile
	// half as much (README.md, "Why the lower quartile"). The median is
	// reported as checker.result_median_s.
	values := sample{
		"result_s":         q1,
		"peak_rss_mib":     peakMiB,
		"alloc_mib_per_op": mean(column(ops, "alloc_mib")),
		"setup_s":          setupS,
	}
	res.EndToEnd = pick(endToEnd, values)

	// Traced phase, in the same process: set-up is paid once.
	var tr *tracer
	var tracedOps []sample
	if cfg.Trace > 0 {
		tr = newTracer()
		tracedOps = res.measure(cfg.Log, "traced", sz.TracedOps, tracedS, func() (sample, error) { return w.traced(tr) })
	}
	final := medians(res.measure(cfg.Log, "final", 1, 0, func() (sample, error) { return w.finish(tr) }))

	if tr != nil {
		layer := medians(ops)
		for k, v := range medians(tracedOps) {
			layer[k] = v
		}
		for k, v := range final {
			layer[k] = v
		}
		layer["checker.result_median_s"] = q2
		layer["checker.result_tail_s"], layer["checker.result_tail_pct"] = tailS, tailPct
		// Not counting the collection timed() forces before each operation.
		layer["checker.gc_cycles_per_op"] = float64(gc1.NumGC-gc0.NumGC)/float64(max(len(ops), 1)) - 1
		// The traced phase is too short for quartiles, so these three
		// compare medians with the untraced median.
		if q2 > 0 {
			layer["checker.overlap_gain_s"] = layer["staged_s"] - q2
			layer["checker.trace_overhead_share"] = layer["traced_result_s"]/q2 - 1
			if cold, ok := layer["cold_check_s"]; ok {
				layer["online.cold_ratio"] = cold / q2
			}
		}
		res.PerLayer = pick(perLayer, layer)
		res.spans = tr.spans
		res.LayerSelfS = layerSelfMedians(tr.spans)
	}

	res.Correct = res.Failed == 0
	res.FailedOpsShare = float64(res.Failed) / float64(res.Attempted)
	res.Provenance = collectProvenance(cfg, w.inputs(), len(ops), len(tracedOps), rssReset, time.Since(start).Seconds())
	return res, nil
}

// measure runs op until it has succeeded minOps times and seconds have
// passed, counting attempts and failures into res, and returns the
// successful operations' samples. When operations keep failing it
// gives up: the count says enough.
func (res *runResult) measure(log io.Writer, phase string, minOps int, seconds float64, op func() (sample, error)) []sample {
	var ops []sample
	failed := 0
	for t0 := time.Now(); len(ops) < minOps || time.Since(t0).Seconds() < seconds; {
		s, err := op()
		res.Attempted++
		if err == nil {
			ops = append(ops, s)
			continue
		}
		res.Failed++
		res.Failures = append(res.Failures, fmt.Sprintf("%s op %d: %v", phase, res.Attempted, err))
		fmt.Fprintf(log, "FAILED %s op %d: %v\n", phase, res.Attempted, err)
		if failed++; failed >= minOps {
			break
		}
	}
	return ops
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// pick reports every declared metric, 0 for one the workload's layers
// never produced (a bypassed layer did no work).
func pick(defs []metricDef, values sample) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
