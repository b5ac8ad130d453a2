package lfsck

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"faultyrank/internal/inject"
	"faultyrank/internal/lustre"
)

// sortedActions normalises an action log for comparison: details are
// dropped and injector-minted bogus FIDs (which come from a
// process-global counter, so they differ between the two clusters) are
// collapsed to a placeholder.
func sortedActions(res *Result) []Action {
	const bogusSeq = 0xFA017
	out := make([]Action, 0, len(res.Actions))
	for _, a := range res.Actions {
		a.Detail = ""
		if a.FID.Seq == bogusSeq {
			a.FID = lustre.FID{Seq: bogusSeq, Oid: 0xFFFF}
		}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].FID.Less(out[j].FID)
	})
	return out
}

// TestBatchedEquivalence: the batched-RPC variant must reach exactly the
// same verdicts as the per-object pipeline on every scenario — only the
// round-trip count changes.
func TestBatchedEquivalence(t *testing.T) {
	for s := inject.Scenario(0); s < inject.NumScenarios; s++ {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			base := testCluster(t)
			if _, err := inject.Inject(base, s, target); err != nil {
				t.Fatal(err)
			}
			batched := testCluster(t)
			if _, err := inject.Inject(batched, s, target); err != nil {
				t.Fatal(err)
			}
			resA := runLFSCK(t, base, Options{DryRun: true})
			resB := runLFSCK(t, batched, Options{DryRun: true, BatchSize: 64})
			a, b := sortedActions(resA), sortedActions(resB)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("verdicts diverge:\n per-object: %+v\n batched: %+v", a, b)
			}
		})
	}
}

// TestBatchedUsesFewerRPCs: over TCP, batching collapses the round-trip
// count by roughly the batch factor. Each run takes milliseconds, so one
// scheduler stall can triple it; the durations compared are the best of
// timingRuns interleaved runs of each variant.
func TestBatchedUsesFewerRPCs(t *testing.T) {
	const timingRuns = 5
	seq := testCluster(t)
	bat := testCluster(t)
	var resSeq, resBat *Result
	var bestSeq, bestBat time.Duration
	for i := 0; i < timingRuns; i++ {
		rs := runLFSCK(t, seq, Options{UseTCP: true, DryRun: true})
		rb := runLFSCK(t, bat, Options{UseTCP: true, DryRun: true, BatchSize: 64})
		if i == 0 || rs.Duration < bestSeq {
			bestSeq = rs.Duration
		}
		if i == 0 || rb.Duration < bestBat {
			bestBat = rb.Duration
		}
		resSeq, resBat = rs, rb
	}
	if resBat.Stats.RPCs*8 > resSeq.Stats.RPCs {
		t.Fatalf("batched RPCs %d not ≪ per-object %d", resBat.Stats.RPCs, resSeq.Stats.RPCs)
	}
	if bestBat >= bestSeq*2 {
		t.Errorf("batched run slower than per-object: %v vs %v", bestBat, bestSeq)
	}
}
