// Command benchmark is the repository's one measurement spine: four
// workloads, the same end-to-end metrics on each, and a traced run that
// says which layer the time went to. Everything is measured from
// outside — wall-clock around calls into each layer's public functions.
// See README.md in this directory.
//
//	bash benchmark/run.sh -workload all -seed 1 -out results/a
//	bash benchmark/run.sh -compare results/a results/b
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: "+fmt.Sprint(workloadNames)+" or all (one child process each)")
		seed     = flag.Int64("seed", 1, "the only source of the inputs (1 = default, 2 = the hold-out)")
		seconds  = flag.Float64("seconds", 10, "how long each measured phase lasts")
		trace    = flag.Int("trace", 2, "0 = end-to-end metrics only, 1 = per-layer metrics from a traced run, 2 = both")
		scale    = flag.String("scale", "full", "input sizes: full or smoke")
		out      = flag.String("out", ".bench_build/results", "directory for result and trace files")
		compare  = flag.Bool("compare", false, "compare the result directories given as arguments: A (baseline) B")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result directories, got %d", flag.NArg()))
		}
		worse, err := compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	sz, ok := scales[*scale]
	if !ok {
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	if *trace < 0 || *trace > 2 {
		fatal(fmt.Errorf("-trace is 0, 1 or 2, got %d", *trace))
	}
	if *workload == "all" {
		if err := runAll(*seed, *seconds, *trace, *scale, *out); err != nil {
			fatal(err)
		}
		return
	}
	cfg := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace, Sizes: sz, Log: os.Stdout}
	res, err := runWorkload(cfg)
	if err != nil {
		fatal(err)
	}
	if err := writeFiles(*out, res); err != nil {
		fatal(err)
	}
	printHuman(os.Stdout, res)
	// The last line is the machine-readable summary.
	fmt.Println(summaryLine(res, *trace))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runAll runs every workload in its own child process, so each gets a
// clean peak RSS and no other workload's heap.
func runAll(seed int64, seconds float64, trace int, scale, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, name := range workloadNames {
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
			"-scale", scale, "-out", out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads did not complete", failed, len(workloadNames))
	}
	return nil
}

// summary is the driver's result line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func summaryLine(res *runResult, trace int) string {
	s := summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	if trace != 1 {
		for k, v := range res.EndToEnd {
			s.Metrics[k] = v
		}
	}
	if trace != 0 {
		for k, v := range res.PerLayer {
			s.Metrics[k] = v
		}
	}
	line, _ := json.Marshal(s)
	return string(line)
}

// writeFiles writes the run's result file — one per run, so a directory
// accumulates the repeated runs -compare needs — and, after a traced
// run, the workload's span file.
func writeFiles(dir string, res *runResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("result_%s_seed%d_%d.json", res.Workload, res.Provenance.Seed, time.Now().UnixNano())
	if err := writeJSON(filepath.Join(dir, name), res); err != nil {
		return err
	}
	if res.spans == nil {
		return nil
	}
	return writeJSON(filepath.Join(dir, "trace_"+res.Workload+".json"),
		map[string]any{"workload": res.Workload, "seed": res.Provenance.Seed, "spans": res.spans})
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// printHuman prints every metric by name with its unit.
func printHuman(w io.Writer, res *runResult) {
	p := res.Provenance
	fmt.Fprintf(w, "== %s  seed=%d scale=%s  commit=%s %s nproc=%d GOMAXPROCS=%d rss_reset=%t\n",
		res.Workload, p.Seed, p.Sizes.Scale, p.Commit, p.GoVersion, p.NProc, p.GOMAXPROCS, p.RSSReset)
	fmt.Fprintf(w, "   inputs=%v  timed ops=%d traced ops=%d warm-ups=%d  wall=%.1fs\n", p.Inputs, p.N, p.TracedN, p.Warmups, p.WallS)
	d := res.ResultS
	fmt.Fprintf(w, "   result_s: n=%d q1=%.4f median=%.4f q3=%.4f p%.0f=%.4f   failed_ops_share=%.4f (%d of %d)\n",
		d.N, d.Q1, d.Median, d.Q3, d.TailPct, d.Tail, res.FailedOpsShare, res.Failed, res.Attempted)
	for _, def := range endToEnd {
		fmt.Fprintf(w, "   %-32s %14.6g %s\n", def.Name, res.EndToEnd[def.Name].Value, def.Unit)
	}
	if res.PerLayer == nil {
		return
	}
	for _, def := range perLayer {
		fmt.Fprintf(w, "   %-32s %14.6g %s\n", def.Name, res.PerLayer[def.Name].Value, def.Unit)
	}
	layers := make([]string, 0, len(res.LayerSelfS))
	for l := range res.LayerSelfS {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprint(w, "   self time per traced op (s):")
	for _, l := range layers {
		fmt.Fprintf(w, " %s=%.4f", l, res.LayerSelfS[l])
	}
	fmt.Fprintln(w)
}
