package bench

import (
	"fmt"

	"faultyrank/internal/checker"
	"faultyrank/internal/core"
	"faultyrank/internal/inject"
)

// AblationConfig is one algorithm variant under test.
type AblationConfig struct {
	Name   string
	Mutate func(*core.Options)
}

// AblationConfigs are the design choices DESIGN.md calls out, each
// toggled against the paper-faithful default.
func AblationConfigs() []AblationConfig {
	return []AblationConfig{
		{Name: "default", Mutate: func(o *core.Options) {}},
		{Name: "w=1.0 (unweighted)", Mutate: func(o *core.Options) { o.UnpairedWeight = 1.0 }},
		{Name: "leaky distribution", Mutate: func(o *core.Options) { o.LeakyDistribution = true }},
		{Name: "no smoothing", Mutate: func(o *core.Options) { o.Smoothing = 0 }},
		{Name: "strict attribution", Mutate: func(o *core.Options) { o.AttributionSlack = 1.0 }},
		{Name: "threshold=0.2", Mutate: func(o *core.Options) { o.Threshold = 0.2 }},
		{Name: "sink-to-all", Mutate: func(o *core.Options) { o.SinkPolicy = core.SinkToAll }},
	}
}

// AblationMatrix runs every Fig. 7 scenario under every configuration
// and reports whether the ground-truth root cause was identified —
// showing which design choices the detection quality actually depends
// on.
func AblationMatrix(scale Scale) (*Table, error) {
	configs := AblationConfigs()
	t := &Table{
		Title:   "Ablation — root-cause identification per algorithm variant",
		Columns: append([]string{"scenario"}, configNames(configs)...),
	}
	for s := inject.Scenario(0); s < inject.NumScenarios; s++ {
		row := []string{s.String()}
		for _, cfg := range configs {
			c, err := fig7Cluster(scale)
			if err != nil {
				return nil, err
			}
			target, err := inject.PickTarget(c)
			if err != nil {
				return nil, err
			}
			inj, err := inject.Inject(c, s, target)
			if err != nil {
				return nil, err
			}
			opt := checker.DefaultOptions()
			cfg.Mutate(&opt.Core)
			res, err := checker.Run(checker.ClusterImages(c), opt)
			if err != nil {
				return nil, err
			}
			row = append(row, yesNo(groundTruthIdentified(res, inj)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"every column should read yes for a robust configuration; divergences localise which knob a scenario depends on")
	return t, nil
}

func configNames(cfgs []AblationConfig) []string {
	out := make([]string, len(cfgs))
	for i, c := range cfgs {
		out[i] = c.Name
	}
	return out
}

// AblationFalsePositives runs every configuration against a *clean*
// cluster and counts findings — the complementary robustness check.
func AblationFalsePositives(scale Scale) (*Table, error) {
	configs := AblationConfigs()
	t := &Table{
		Title:   "Ablation — findings on a fully consistent cluster (false positives)",
		Columns: []string{"config", "findings", "suspects", "ambiguous"},
	}
	for _, cfg := range configs {
		c, err := fig7Cluster(scale)
		if err != nil {
			return nil, err
		}
		opt := checker.DefaultOptions()
		cfg.Mutate(&opt.Core)
		res, err := checker.Run(checker.ClusterImages(c), opt)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			cfg.Name,
			fmt.Sprintf("%d", len(res.Findings)),
			fmt.Sprintf("%d", len(res.Report.Suspects)),
			fmt.Sprintf("%d", len(res.Report.Ambiguous)),
		})
	}
	return t, nil
}
