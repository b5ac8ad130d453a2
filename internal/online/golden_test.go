package online

import (
	"bytes"
	"reflect"
	"testing"

	"faultyrank/internal/agg"
	"faultyrank/internal/bincodec/bincodectest"
	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
)

// goldenTrackerSnapshot is a fixed durable state: a two-server delta
// builder with one file, its stripe object and a pending dirty set, plus
// every lifetime counter set to a distinct value. The warm vectors are
// written out rather than computed so the golden does not move with the
// rank kernel's arithmetic.
func goldenTrackerSnapshot(t *testing.T, warm bool) *trackerSnapshot {
	t.Helper()
	file := lustre.FID{Seq: lustre.MDTSeqBase, Oid: 3, Ver: 1}
	obj := lustre.FID{Seq: lustre.OSTSeqBase, Oid: 0x44}
	db := agg.NewDeltaBuilder([]string{"mdt0", "ost0"})
	for _, c := range []struct {
		srv int
		ino ldiskfs.Ino
		p   *scanner.Partial
	}{
		{0, 13, &scanner.Partial{
			Objects: objectsOf(scanner.Object{FID: file, Ino: 13, Type: ldiskfs.TypeFile}),
			Edges:   edgesOf(scanner.Edge{Dst: obj, Kind: graph.KindLOVEA}),
			Stats:   scanner.Stats{InodesScanned: 1, EdgesEmitted: 1},
		}},
		{1, 7, &scanner.Partial{
			Objects: objectsOf(scanner.Object{FID: obj, Ino: 7, Type: ldiskfs.TypeObject}),
			Edges:   edgesOf(scanner.Edge{Dst: file, Kind: graph.KindFilterFID}),
			Stats:   scanner.Stats{InodesScanned: 1, EdgesEmitted: 1},
		}},
	} {
		if err := db.Apply(c.srv, c.ino, c.p); err != nil {
			t.Fatal(err)
		}
	}
	s := &trackerSnapshot{
		delta: db, lastIters: 27, checks: 5, updates: 9,
		inodesRescan: 40, inodesDropped: 3, warmFallbacks: 1, rescans: 2,
	}
	if warm {
		s.haveWarm = true
		s.prevID = []float64{0.5, 0.25}
		s.prevProp = []float64{0.125, 0.875}
	}
	return s
}

// TestGoldenTrackerSnapshot pins FRSN, with and without warm vectors, to
// the bytes committed under testdata/.
func TestGoldenTrackerSnapshot(t *testing.T) {
	for name, warm := range map[string]bool{"frsn_cold": false, "frsn_warm": true} {
		want := goldenTrackerSnapshot(t, warm)
		file := bincodectest.Golden(t, name, encodeTrackerSnapshot(want))
		got, err := decodeTrackerSnapshot(file)
		if err != nil {
			t.Fatalf("%s: decode golden: %v", name, err)
		}
		// The nested builder is compared through its own canonical
		// encoding (its golden lives in agg); everything else directly.
		if !bytes.Equal(got.delta.EncodeBinary(), want.delta.EncodeBinary()) {
			t.Fatalf("%s: delta section differs", name)
		}
		got.delta, want.delta = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded %+v, want %+v", name, got, want)
		}
	}
}

// objectsOf and edgesOf build record sections for test fixtures.
func objectsOf(objs ...scanner.Object) (s scanner.Objects) {
	s.Append(objs...)
	return s
}

func edgesOf(edges ...scanner.Edge) (s scanner.Edges) {
	s.Append(edges...)
	return s
}
