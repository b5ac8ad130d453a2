package main

import (
	"fmt"
	"math/rand"

	"faultyrank/internal/checker"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/repair"
)

// faultRepair is fault_repair: check, repair and verify a cluster
// carrying one planted fault in each of many disjoint regions, cycling
// the paper's eight Fig. 7 scenarios. It is the only workload with
// findings, so core.Detect, classification and repair do real work, and
// it is the correctness tripwire for kernel changes: a lost root cause
// is a failed operation, not a faster one.
type faultRepair struct {
	faulted []*ldiskfs.Image
	regions []map[lustre.FID]bool // each region's FID set (internal/campaign's attribution rule)
	opt     checker.Options
	sz      sizes
	// findings is what the latest operation saw, for the provenance block.
	findings int
	genRate  float64 // set-up's background generation rate, inodes per second
}

func (w *faultRepair) setup(seed int64, sz sizes) error {
	c, rate, err := agedCluster(sz.FaultBackground, seed)
	if err != nil {
		return err
	}
	w.sz, w.genRate = sz, rate
	w.opt = checker.DefaultOptions()
	rng := rand.New(rand.NewSource(seed))
	paths := make([]string, sz.FaultRegions)
	w.regions = make([]map[lustre.FID]bool, sz.FaultRegions)
	for i := range paths {
		paths[i] = fmt.Sprintf("/region%03d", i)
		if err := c.MkdirAll(paths[i]); err != nil {
			return err
		}
		for f := 0; f < sz.FilesPerRegion; f++ {
			if _, err := c.Create(fmt.Sprintf("%s/f%02d", paths[i], f), 3*64<<10); err != nil {
				return err
			}
		}
	}
	// FID sets are recorded while the metadata is still pristine.
	for i, region := range paths {
		if w.regions[i], err = regionFIDs(c, region); err != nil {
			return err
		}
	}
	for i, region := range paths {
		scenario := inject.Scenario(i % inject.NumScenarios)
		target := fmt.Sprintf("%s/f%02d", region, rng.Intn(sz.FilesPerRegion))
		inj, err := inject.Inject(c, scenario, target)
		if err != nil {
			return fmt.Errorf("inject %v in %s: %w", scenario, region, err)
		}
		// Injection can mint FIDs (wrong identities, impostors).
		w.regions[i][inj.VictimFID] = true
		if !inj.NewFID.IsZero() {
			w.regions[i][inj.NewFID] = true
		}
	}
	w.faulted = checker.ClusterImages(c)
	return nil
}

// regionFIDs collects a region's directory, files and stripe objects.
func regionFIDs(c *lustre.Cluster, region string) (map[lustre.FID]bool, error) {
	set := map[lustre.FID]bool{}
	dir, err := c.Stat(region)
	if err != nil {
		return nil, err
	}
	set[dir.FID] = true
	ents, err := c.ReadDir(region)
	if err != nil {
		return nil, err
	}
	for _, de := range ents {
		file, err := c.Stat(region + "/" + de.Name)
		if err != nil {
			return nil, err
		}
		set[file.FID] = true
		raw, ok, err := c.MDT.Img.GetXattr(file.Ino, lustre.XattrLOV)
		if err != nil || !ok {
			return nil, fmt.Errorf("%s/%s: no layout (%v)", region, de.Name, err)
		}
		layout, err := lustre.DecodeLOVEA(raw)
		if err != nil {
			return nil, err
		}
		for _, st := range layout.Stripes {
			set[st.ObjectFID] = true
		}
	}
	return set, nil
}

func (w *faultRepair) inputs() map[string]int64 {
	return map[string]int64{
		"background_mdt_inodes": w.sz.FaultBackground,
		"fault_regions":         int64(w.sz.FaultRegions),
		"files_per_region":      int64(w.sz.FilesPerRegion),
		"findings":              int64(w.findings),
		"image_bytes":           imageBytes(w.faulted),
	}
}

// attribute scores findings against the planted regions: how many
// regions have a finding whose FID or repair FIDs fall in their set,
// and how many findings belong to no region.
func attribute(regions []map[lustre.FID]bool, findings []checker.Finding) (identified, falsePositives int) {
	hit := make([]bool, len(regions))
	for _, f := range findings {
		attributed := false
		for i, set := range regions {
			if set[f.FID] || touches(f, set) {
				hit[i], attributed = true, true
			}
		}
		if !attributed && f.Kind != checker.ParseDamage {
			falsePositives++
		}
	}
	for _, h := range hit {
		if h {
			identified++
		}
	}
	return identified, falsePositives
}

func touches(f checker.Finding, set map[lustre.FID]bool) bool {
	for _, r := range f.Repairs {
		if set[r.TargetFID] || set[r.SourceFID] || set[r.NewID] {
			return true
		}
	}
	return false
}

// faultOracle: every planted fault attributed, nothing reported outside
// the regions, no repair skipped, and the verifying pass clean.
func faultOracle(regions []map[lustre.FID]bool, found *checker.Result, sum *repair.Summary, verify *checker.Result) error {
	identified, fp := attribute(regions, found.Findings)
	switch {
	case identified != len(regions):
		return fmt.Errorf("%d of %d planted faults attributed", identified, len(regions))
	case fp != 0:
		return fmt.Errorf("%d findings outside every planted region", fp)
	case sum.Skipped != 0:
		return fmt.Errorf("%d repair actions skipped", sum.Skipped)
	case len(verify.Findings) != 0 || verify.Stats.UnpairedEdges != 0:
		return fmt.Errorf("verify pass: %d findings, %d unpaired edges", len(verify.Findings), verify.Stats.UnpairedEdges)
	}
	return nil
}

// checkRepairVerify is the operation: check → repair → verifying check.
func (w *faultRepair) checkRepairVerify(images []*ldiskfs.Image) (found *checker.Result, sum *repair.Summary, verify *checker.Result, err error) {
	if found, err = checker.Run(images, w.opt); err != nil {
		return
	}
	sum = repair.NewEngine(images, found).Apply(found.Findings)
	verify, err = checker.Run(images, w.opt)
	return
}

func (w *faultRepair) op() (sample, error) {
	s := sample{}
	// The copy page-faults for a variable time, so it stays untimed.
	images, err := copyImages(w.faulted)
	if err != nil {
		return s, err
	}
	var found, verify *checker.Result
	var sum *repair.Summary
	timed(s, func() { found, sum, verify, err = w.checkRepairVerify(images) })
	if err != nil {
		return s, err
	}
	w.findings = len(found.Findings)
	stageTimes(s, found)
	return s, faultOracle(w.regions, found, sum, verify)
}

func (w *faultRepair) traced(tr *tracer) (sample, error) {
	s := sample{}
	images, err := copyImages(w.faulted)
	if err != nil {
		return s, err
	}
	tr.nextOp()
	root := tr.begin("benchmark.staged_op", -1)
	streams, err := stagedScan(tr, root, s, images)
	if err != nil {
		return s, err
	}
	u, err := stagedMerge(tr, root, s, labelsOf(images), streams)
	if err != nil {
		return s, err
	}
	found, err := stagedAnalyze(tr, root, s, images, u, w.opt)
	if err != nil {
		return s, err
	}
	var sum *repair.Summary
	s["repair.apply_s"], _ = tr.stage(root, "repair.apply", func() {
		sum = repair.NewEngine(images, found).Apply(found.Findings)
	})
	var verify *checker.Result
	s["repair.verify_s"], _ = tr.stage(root, "repair.verify", func() { verify, err = checker.Run(images, w.opt) })
	s["staged_s"] = tr.end(root)
	if err != nil {
		return s, err
	}
	s["repair.applied"] = float64(sum.Applied)
	s["repair.skipped"] = float64(sum.Skipped)
	s["repair.ns_per_action"] = s["repair.apply_s"] * 1e9 / float64(max(sum.Applied+sum.Skipped, 1))
	s["repair.residual_findings"] = float64(len(verify.Findings))
	identified, fp := attribute(w.regions, found.Findings)
	s["checker.identified"], s["checker.false_positives"] = float64(identified), float64(fp)
	if err := faultOracle(w.regions, found, sum, verify); err != nil {
		return s, fmt.Errorf("staged: %w", err)
	}
	serialProbe(tr, s, found.Graph, s["core.iterate_s"])

	if images, err = copyImages(w.faulted); err != nil {
		return s, err
	}
	var pFound, pVerify *checker.Result
	var pSum *repair.Summary
	s["traced_result_s"] = tr.pipelineOp(func() {
		pFound, pSum, pVerify, err = w.checkRepairVerify(images)
	})
	if err != nil {
		return s, err
	}
	if err := faultOracle(w.regions, pFound, pSum, pVerify); err != nil {
		return s, err
	}
	return s, sameDigest("staged fault check", resultDigest(found), resultDigest(pFound))
}

func (w *faultRepair) finish(*tracer) (sample, error) {
	return sample{"lustre.setup_inodes_per_s": w.genRate}, nil
}
