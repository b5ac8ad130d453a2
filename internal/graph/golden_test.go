package graph

import (
	"reflect"
	"testing"

	"faultyrank/internal/bincodec/bincodectest"
)

// TestGoldenSubGraph pins FRSG to the bytes committed under testdata/.
// The shard is partition 1 of 3 of a fixed eight-vertex graph with
// paired and unpaired edges, so it has locals, ghosts, both CSR
// orientations and non-empty send schedules.
func TestGoldenSubGraph(t *testing.T) {
	b := NewBidirected(8, []Edge{
		{Src: 0, Dst: 1, Kind: KindDirent}, {Src: 1, Dst: 0, Kind: KindLinkEA},
		{Src: 1, Dst: 4, Kind: KindLOVEA}, {Src: 4, Dst: 1, Kind: KindFilterFID},
		{Src: 1, Dst: 5, Kind: KindLOVEA},
		{Src: 0, Dst: 2, Kind: KindDirent}, {Src: 2, Dst: 0, Kind: KindLinkEA},
		{Src: 7, Dst: 2, Kind: KindFilterFID},
		{Src: 3, Dst: 6, Kind: KindDirent},
	}, 1)
	owners := []uint16{0, 1, 2, 0, 1, 2, 0, 1}
	want := PartitionPlan(b, owners, 3, 1).Parts[1]
	if len(want.Local) == 0 || len(want.Ghosts) == 0 || len(want.FwdCol) == 0 || want.CutEdges == 0 {
		t.Fatalf("fixture shard is degenerate: %+v", want)
	}

	file := bincodectest.Golden(t, "frsg", EncodeSubGraph(want))
	got, err := DecodeSubGraph(file)
	if err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	// Decode's canonical form has nil for every empty vector.
	norm := *want
	norm.SendTo = make([][]uint32, len(want.SendTo))
	for q, sched := range want.SendTo {
		norm.SendTo[q] = normNil(sched)
	}
	if !reflect.DeepEqual(got, &norm) {
		t.Fatalf("decoded %+v, want %+v", got, &norm)
	}
}
