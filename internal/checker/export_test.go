package checker

import (
	"math"
	"testing"

	"faultyrank/internal/core"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

// Fig7Cluster and Fig7Target are the Fig. 7 fixture, for the external
// tests that also need the repair engine (which imports this package).
func Fig7Cluster(t testing.TB) *lustre.Cluster { return fig7Cluster(t) }

const Fig7Target = fig7Target

// FindingsOverNaNRanks re-runs detection and classification of res with
// every rank replaced by NaN. A NaN that is read surfaces as a NaN score
// or, in Detect, as a suspect (no NaN clears the threshold), so a report
// and findings equal to res's own show that nothing read the ranks.
func FindingsOverNaNRanks(res *Result, images []*ldiskfs.Image, opt Options) (*core.Report, []Finding) {
	n := res.Graph.N()
	nan := &core.Result{IDRank: make([]float64, n), PropRank: make([]float64, n)}
	for v := range n {
		nan.IDRank[v], nan.PropRank[v] = math.NaN(), math.NaN()
	}
	cp := *res
	cp.Rank = nan
	cp.Report = core.Detect(cp.Graph, nan, cp.Unified.Present, opt.Core)
	byLabel := make(map[string]*ldiskfs.Image, len(images))
	for _, img := range images {
		byLabel[img.Label()] = img
	}
	return cp.Report, classify(&cp, byLabel, opt)
}
