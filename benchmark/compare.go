package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// loadResults reads every result file in dir, grouped by workload. A
// file without a provenance block is rejected: a number that cannot say
// where it came from is not evidence.
func loadResults(dir string) (map[string][]*runResult, error) {
	files, err := filepath.Glob(filepath.Join(dir, "result_*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no result_*.json files", dir)
	}
	out := map[string][]*runResult{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r runResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Provenance.valid() {
			return nil, fmt.Errorf("%s: no provenance block", f)
		}
		if r.EndToEnd == nil {
			continue // a traced-only run carries no end-to-end metrics
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	return out, nil
}

// verdict judges B against baseline A for one metric: "unresolved" when
// either side's own runs spread wider than the bound (the difference
// cannot be told from noise), "worse" when B's median is worse than
// A's by more than the bound, else "ok".
func verdict(def metricDef, a, b []float64) string {
	if spread(a) > def.Bound || spread(b) > def.Bound {
		return "unresolved"
	}
	ma, mb := median(a), median(b)
	worseBy := (mb - ma) / ma
	if def.Better == "higher" {
		worseBy = -worseBy
	}
	if worseBy > def.Bound {
		return "worse"
	}
	return "ok"
}

// compareDirs prints, per workload and end-to-end metric, each side's
// median and quartiles, the ratio with its base, and the verdict. It
// reports whether anything was worse or unresolved, or whether B has
// more failed operations than A.
func compareDirs(w io.Writer, dirA, dirB string) (bad bool, err error) {
	a, err := loadResults(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (baseline), B = %s; quartiles as Python statistics.quantiles(n=4)\n", dirA, dirB)
	for _, name := range workloadNames {
		ra, rb := a[name], b[name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%s: runs A=%d B=%d — skipped\n", name, len(ra), len(rb))
			continue
		}
		fmt.Fprintf(w, "%s: runs A=%d B=%d\n", name, len(ra), len(rb))
		for _, def := range endToEnd {
			va, vb := endToEndColumn(ra, def.Name), endToEndColumn(rb, def.Name)
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			v := verdict(def, va, vb)
			bad = bad || v != "ok"
			fmt.Fprintf(w, "  %-18s A %.5g [%.5g, %.5g]  B %.5g [%.5g, %.5g] %s  B/A = %.4f (base A = %.5g)  bound %.2f  %s\n",
				def.Name, a2, a1, a3, b2, b1, b3, def.Unit, b2/a2, a2, def.Bound, v)
		}
		fa, fb := failedShare(ra), failedShare(rb)
		v := "ok"
		if fb > fa {
			v, bad = "worse", true
		}
		fmt.Fprintf(w, "  %-18s A %.4f  B %.4f  (any increase is worse)  %s\n", "failed_ops_share", fa, fb, v)
	}
	return bad, nil
}

func endToEndColumn(rs []*runResult, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.EndToEnd[name].Value
	}
	return out
}

func failedShare(rs []*runResult) float64 {
	failed, attempted := 0, 0
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}
