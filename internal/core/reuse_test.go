package core

import (
	"reflect"
	"slices"
	"testing"
)

// TestReuseMatchesFresh: a run handed an earlier result (Options.Reuse)
// returns that result, rewritten with the bits a fresh run computes —
// switching between Run and RunIncremental, onto a smaller graph and back
// onto a larger one — and only reads its warm seeds.
func TestReuseMatchesFresh(t *testing.T) {
	large, small := metadataShapedGraph(9000), metadataShapedGraph(5000)
	opt := DefaultOptions()
	opt.Workers = 3
	prev := Run(large, opt)

	warm := opt
	warm.InitialID, warm.InitialProp = slices.Clone(prev.IDRank), slices.Clone(prev.PropRank)
	seedID, seedProp := slices.Clone(warm.InitialID), slices.Clone(warm.InitialProp)
	dirty := []uint32{3, 700, 8999}
	steps := []struct {
		name string
		run  func(Options) *Result
	}{
		{"incremental on the graph ranked before", func(o Options) *Result { return RunIncremental(large, o, dirty) }},
		{"Run on a smaller graph", func(o Options) *Result { return Run(small, o) }},
		{"incremental on the larger graph again", func(o Options) *Result { return RunIncremental(large, o, dirty) }},
		{"Run on the larger graph", func(o Options) *Result { return Run(large, o) }},
	}
	for _, s := range steps {
		want := s.run(warm)
		reuse := warm
		reuse.Reuse = prev
		got := s.run(reuse)
		if got != prev {
			t.Fatalf("%s: returned a new result, not the one handed back", s.name)
		}
		assertSameResult(t, got, want)
		if !reflect.DeepEqual(got.Frontier, want.Frontier) {
			t.Fatalf("%s: frontier %+v, fresh %+v", s.name, got.Frontier, want.Frontier)
		}
		if !slices.Equal(warm.InitialID, seedID) || !slices.Equal(warm.InitialProp, seedProp) {
			t.Fatalf("%s: the run wrote into its warm seeds", s.name)
		}
	}
}
