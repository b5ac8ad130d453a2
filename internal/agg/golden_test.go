package agg

import (
	"reflect"
	"testing"

	"faultyrank/internal/bincodec/bincodectest"
	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
)

// goldenDelta drives a fixed apply/remove/reset sequence through the
// public mutators: two servers, a directory holding a striped file, a
// replaced contribution, a tombstone, an issue, and a dirty set that
// survives the last ResetDirty.
func goldenDelta(t *testing.T) *DeltaBuilder {
	t.Helper()
	dir := lustre.FID{Seq: lustre.MDTSeqBase, Oid: 2}
	file := lustre.FID{Seq: lustre.MDTSeqBase, Oid: 3, Ver: 1}
	gone := lustre.FID{Seq: lustre.MDTSeqBase, Oid: 4}
	obj := lustre.FID{Seq: lustre.OSTSeqBase, Oid: 0x44}
	db := NewDeltaBuilder([]string{"mdt0", "ost0"})
	apply := func(srv int, ino ldiskfs.Ino, p *scanner.Partial) {
		if err := db.Apply(srv, ino, p); err != nil {
			t.Fatal(err)
		}
	}
	apply(0, 12, &scanner.Partial{
		Objects: objectsOf(scanner.Object{FID: dir, Ino: 12, Type: ldiskfs.TypeDir}),
		Edges:   edgesOf(scanner.Edge{Dst: file, Kind: graph.KindDirent}, scanner.Edge{Dst: gone, Kind: graph.KindDirent}),
		Stats:   scanner.Stats{InodesScanned: 1, DirentsRead: 2, EdgesEmitted: 2},
	})
	apply(0, 14, &scanner.Partial{
		Objects: objectsOf(scanner.Object{FID: gone, Ino: 14, Type: ldiskfs.TypeFile}),
		Stats:   scanner.Stats{InodesScanned: 1},
	})
	apply(0, 13, &scanner.Partial{
		Objects: objectsOf(scanner.Object{FID: file, Ino: 13, Type: ldiskfs.TypeFile}),
		Edges:   edgesOf(scanner.Edge{Dst: dir, Kind: graph.KindLinkEA}),
		Stats:   scanner.Stats{InodesScanned: 1, EdgesEmitted: 1},
	})
	db.Materialize()
	db.ResetDirty()
	db.Remove(0, 14)
	apply(0, 13, &scanner.Partial{
		Objects: objectsOf(scanner.Object{FID: file, Ino: 13, Type: ldiskfs.TypeFile}),
		Edges: edgesOf(
			scanner.Edge{Dst: dir, Kind: graph.KindLinkEA},
			scanner.Edge{Dst: obj, Kind: graph.KindLOVEA},
		),
		Issues: []scanner.Issue{{Ino: 13, What: "lov: stripe count mismatch"}},
		Stats:  scanner.Stats{InodesScanned: 1, EdgesEmitted: 2},
	})
	apply(1, 7, &scanner.Partial{
		Objects: objectsOf(scanner.Object{FID: obj, Ino: 7, Type: ldiskfs.TypeObject}),
		Edges:   edgesOf(scanner.Edge{Dst: file, Kind: graph.KindFilterFID}),
		Stats:   scanner.Stats{InodesScanned: 1, EdgesEmitted: 1},
	})
	return db
}

// TestGoldenDeltaSnapshot pins FRDB to the bytes committed under
// testdata/: the fixture must encode to the file, and the file must
// decode to a builder with the same labels, materialisation (dirty seeds
// included) and per-server partials.
func TestGoldenDeltaSnapshot(t *testing.T) {
	want := goldenDelta(t)
	file := bincodectest.Golden(t, "frdb", want.EncodeBinary())
	got, err := DecodeDeltaBuilder(file)
	if err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if !reflect.DeepEqual(got.Labels(), want.Labels()) {
		t.Fatalf("labels %v, want %v", got.Labels(), want.Labels())
	}
	wantMat := want.Materialize()
	if len(wantMat.DirtySeeds) == 0 || len(wantMat.U.Issues) != 1 {
		t.Fatalf("fixture lost its dirty set or issue: %d seeds, %d issues", len(wantMat.DirtySeeds), len(wantMat.U.Issues))
	}
	assertMaterializedEqual(t, got.Materialize(), wantMat)
	for si := range want.Labels() {
		if !reflect.DeepEqual(got.ServerPartial(si), want.ServerPartial(si)) {
			t.Fatalf("server %d partial differs", si)
		}
	}
}
