package agg

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
)

// fidEdgeKey is an edge in FID space, the numbering-independent form.
type fidEdgeKey struct {
	src, dst lustre.FID
	kind     graph.EdgeKind
}

// refState mirrors a DeltaBuilder with the batch path: per-server inode
// maps materialised into partials and merged with MergeWorkers — the
// executable specification the incremental path must match in FID space.
type refState struct {
	labels []string
	byIno  []map[ldiskfs.Ino]*scanner.Partial
}

func newRefState(labels []string) *refState {
	r := &refState{labels: labels}
	for range labels {
		r.byIno = append(r.byIno, make(map[ldiskfs.Ino]*scanner.Partial))
	}
	return r
}

// parts is the batch path's input: each server's tracked inodes,
// ascending, concatenated into one partial.
func (r *refState) parts() []*scanner.Partial {
	var parts []*scanner.Partial
	for i, label := range r.labels {
		merged := &scanner.Partial{ServerLabel: label}
		inos := make([]ldiskfs.Ino, 0, len(r.byIno[i]))
		for ino := range r.byIno[i] {
			inos = append(inos, ino)
		}
		sort.Slice(inos, func(a, b int) bool { return inos[a] < inos[b] })
		for _, ino := range inos {
			p := r.byIno[i][ino]
			base := uint32(merged.Objects.Len())
			for j := range p.Objects.Len() {
				o := p.Objects.At(j)
				merged.Objects.Append(o)
			}
			for j := range p.Edges.Len() {
				e := p.Edges.At(j)
				e.Src += base
				merged.Edges.Append(e)
			}
			merged.Issues = append(merged.Issues, p.Issues...)
		}
		parts = append(parts, merged)
	}
	return parts
}

// assertFIDEquivalent checks that two Unified graphs have identical
// FID-space content: same present FIDs with the same types and claim
// lists, and the same edge sequence — independent of GID numbering.
func assertFIDEquivalent(t *testing.T, got, want *Unified) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("vertex count: got %d, want %d", got.N(), want.N())
	}
	gotClaims, wantClaims := claimLists(got), claimLists(want)
	wantGID := make(map[lustre.FID]uint32, want.N())
	for g, f := range want.FIDs {
		wantGID[f] = uint32(g)
	}
	for g, f := range got.FIDs {
		wg, ok := wantGID[f]
		if !ok {
			t.Fatalf("FID %v exists incrementally but not in the batch merge", f)
		}
		if got.Present[g] != want.Present[wg] {
			t.Fatalf("FID %v: present %v vs %v", f, got.Present[g], want.Present[wg])
		}
		if got.Types[g] != want.Types[wg] {
			t.Fatalf("FID %v: type %v vs %v", f, got.Types[g], want.Types[wg])
		}
		if gc, wc := gotClaims[g], wantClaims[wg]; !reflect.DeepEqual(gc, wc) {
			t.Fatalf("FID %v: claims %v vs %v", f, gc, wc)
		}
		if gg, ok := got.GID(f); !ok || gg != uint32(g) {
			t.Fatalf("FID %v: GID lookup returned (%d,%v), want (%d,true)", f, gg, ok, g)
		}
	}
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("edge count: got %d, want %d", len(got.Edges), len(want.Edges))
	}
	for i := range got.Edges {
		ge, we := got.Edges[i], want.Edges[i]
		gk := fidEdgeKey{got.FIDs[ge.Src], got.FIDs[ge.Dst], ge.Kind}
		wk := fidEdgeKey{want.FIDs[we.Src], want.FIDs[we.Dst], we.Kind}
		if gk != wk {
			t.Fatalf("edge %d: %+v vs %+v", i, gk, wk)
		}
	}
	if !reflect.DeepEqual(got.Issues, want.Issues) {
		t.Fatalf("issues diverge:\n got  %v\n want %v", got.Issues, want.Issues)
	}
}

func fidFor(server, ino int) lustre.FID {
	return lustre.FID{Seq: uint64(0x200000400 + server), Oid: uint32(ino), Ver: 0}
}

// randomContribution fabricates a plausible single-inode scan result:
// the inode claims its FID and points at a few peers (possibly phantom).
func randomContribution(r *rand.Rand, server, ino, inoSpace int) *scanner.Partial {
	self := fidFor(server, ino)
	p := &scanner.Partial{
		Objects: objectsOf(scanner.Object{FID: self, Ino: ldiskfs.Ino(ino), Type: ldiskfs.TypeFile}),
	}
	p.Stats.InodesScanned = 1
	for k := 0; k < r.Intn(4); k++ {
		dst := fidFor(r.Intn(3), 1+r.Intn(inoSpace))
		kind := []graph.EdgeKind{graph.KindDirent, graph.KindLinkEA, graph.KindLOVEA}[r.Intn(3)]
		p.Edges.Append(scanner.Edge{Dst: dst, Kind: kind})
	}
	if r.Intn(10) == 0 {
		p.Issues = append(p.Issues, scanner.Issue{Ino: ldiskfs.Ino(ino), What: "synthetic damage"})
	}
	return p
}

// TestDeltaMatchesBatchMergeProperty drives random apply/remove
// sequences through a DeltaBuilder and the batch reference in lockstep,
// asserting FID-space equivalence after every materialisation — deletes,
// re-creates of the same inode number, and phantom-only FIDs included.
func TestDeltaMatchesBatchMergeProperty(t *testing.T) {
	labels := []string{"mdt0", "ost0", "ost1"}
	const inoSpace = 40
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := NewDeltaBuilder(labels)
		ref := newRefState(labels)
		for round := 0; round < 8; round++ {
			for op := 0; op < 1+r.Intn(12); op++ {
				srv := r.Intn(len(labels))
				ino := 1 + r.Intn(inoSpace)
				if r.Intn(3) == 0 {
					db.Remove(srv, ldiskfs.Ino(ino))
					delete(ref.byIno[srv], ldiskfs.Ino(ino))
					continue
				}
				p := randomContribution(r, srv, ino, inoSpace)
				if err := db.Apply(srv, ldiskfs.Ino(ino), p); err != nil {
					t.Fatal(err)
				}
				ref.byIno[srv][ldiskfs.Ino(ino)] = p
			}
			mat := db.Materialize()
			parts := ref.parts()
			batch := MergeWorkers(parts, 1)
			assertFIDEquivalent(t, mat.U, batch)
			assertClaims(t, "delta", mat.U, claimsReference(parts, gidLookup(mat.U), mat.U.N()))
			assertClaims(t, "batch", batch, claimsReference(parts, gidLookup(batch), batch.N()))
			if mat.NumIIDs < mat.U.N() {
				t.Fatalf("interner smaller than live set: %d < %d", mat.NumIIDs, mat.U.N())
			}
		}
	}
}

// TestDeltaDeadFIDsLeaveNoZombies: once nothing claims or references a
// FID it must vanish from the materialised graph — zombie vertices
// would change N and perturb every sink-mass redistribution.
func TestDeltaDeadFIDsLeaveNoZombies(t *testing.T) {
	db := NewDeltaBuilder([]string{"mdt0"})
	p := &scanner.Partial{
		Objects: objectsOf(scanner.Object{FID: fidFor(0, 1), Ino: 1, Type: ldiskfs.TypeFile}),
		Edges: edgesOf(
			scanner.Edge{Dst: fidFor(0, 99), Kind: graph.KindLinkEA},
		),
	}
	if err := db.Apply(0, 1, p); err != nil {
		t.Fatal(err)
	}
	mat := db.Materialize()
	if mat.U.N() != 2 {
		t.Fatalf("want object + phantom = 2 vertices, got %d", mat.U.N())
	}
	db.Remove(0, 1)
	mat = db.Materialize()
	if mat.U.N() != 0 {
		t.Fatalf("dead FIDs survived: %d vertices (%v)", mat.U.N(), mat.U.FIDs)
	}
	if _, ok := mat.U.GID(fidFor(0, 1)); ok {
		t.Fatal("GID lookup resolved a dead FID")
	}
	// Re-create the same inode with a different FID: the old identity
	// must stay dead, the new one live.
	p2 := &scanner.Partial{
		Objects: objectsOf(scanner.Object{FID: fidFor(0, 7), Ino: 1, Type: ldiskfs.TypeDir}),
	}
	if err := db.Apply(0, 1, p2); err != nil {
		t.Fatal(err)
	}
	mat = db.Materialize()
	if mat.U.N() != 1 || mat.U.FIDs[0] != fidFor(0, 7) {
		t.Fatalf("recreate: got %v", mat.U.FIDs)
	}
}

func TestDeltaApplyUnknownServer(t *testing.T) {
	db := NewDeltaBuilder([]string{"mdt0"})
	if err := db.Apply(3, 1, &scanner.Partial{}); err == nil {
		t.Fatal("unknown server accepted")
	}
	db.Remove(3, 1) // must not panic
}

// TestApplyScanRefusesMalformedBatch: the intake splits a scan result by
// the inode each record names, so a result whose records break the
// scanner's order, or whose counted inodes and stats its records do not
// account for, is refused whole and changes nothing.
func TestApplyScanRefusesMalformedBatch(t *testing.T) {
	obj := func(ino int) scanner.Object {
		return scanner.Object{FID: fidFor(0, ino), Ino: ldiskfs.Ino(ino), Type: ldiskfs.TypeFile}
	}
	edge := func(src uint32) scanner.Edge {
		return scanner.Edge{Src: src, Dst: fidFor(0, 99), Kind: graph.KindLinkEA}
	}
	good := func() *scanner.Partial {
		return &scanner.Partial{
			Objects: objectsOf(obj(3), obj(5)),
			Edges:   edgesOf(edge(0), edge(1)),
			Issues:  []scanner.Issue{{Ino: 4, What: "missing LMA"}},
			Stats:   scanner.Stats{InodesScanned: 3, EdgesEmitted: 2},
		}
	}
	for name, spoil := range map[string]func(p *scanner.Partial){
		"objects out of order": func(p *scanner.Partial) { p.Objects = objectsOf(obj(5), obj(3)) },
		"issue out of order":   func(p *scanner.Partial) { p.Issues = append(p.Issues, scanner.Issue{Ino: 2, What: "missing LMA"}) },
		"edges out of order":   func(p *scanner.Partial) { p.Edges = edgesOf(edge(1), edge(0)) },
		"edge past objects":    func(p *scanner.Partial) { p.Edges = edgesOf(edge(0), edge(2)) },
		"an uncounted inode":   func(p *scanner.Partial) { p.Stats.InodesScanned = 2 },
		"an inode without records": func(p *scanner.Partial) {
			p.Issues = nil
		},
		"stats its records disagree with": func(p *scanner.Partial) { p.Stats.DirentsRead = 1 },
	} {
		db := NewDeltaBuilder([]string{"mdt0"})
		if err := db.Apply(0, 1, &scanner.Partial{Objects: objectsOf(obj(1))}); err != nil {
			t.Fatal(err)
		}
		before := db.EncodeBinary()
		p := good()
		spoil(p)
		if err := db.ApplyScan(0, p); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !bytes.Equal(db.EncodeBinary(), before) {
			t.Errorf("%s: the refused batch changed the builder", name)
		}
	}
	db := NewDeltaBuilder([]string{"mdt0"})
	if err := db.ApplyScan(0, good()); err != nil {
		t.Fatal(err)
	}
	for ino, want := range map[ldiskfs.Ino]bool{3: true, 4: true, 5: true, 2: false, 6: false} {
		if db.Tracked(0, ino) != want {
			t.Errorf("ino %d: tracked %v, want %v", ino, !want, want)
		}
	}
}

// TestDeltaGIDLookupSurvivesLaterDeltas: the Unified returned by one
// Materialize keeps answering GID lookups for its own FIDs, and only for
// them, while the builder interns new FIDs in later deltas — the repair
// engine holds a result across the updates its repairs feed. The next
// Materialize rewrites that same Unified into the new round's view.
func TestDeltaGIDLookupSurvivesLaterDeltas(t *testing.T) {
	db := NewDeltaBuilder([]string{"mdt0"})
	p := &scanner.Partial{
		Objects: objectsOf(scanner.Object{FID: fidFor(0, 1), Ino: 1, Type: ldiskfs.TypeFile}),
	}
	if err := db.Apply(0, 1, p); err != nil {
		t.Fatal(err)
	}
	old := db.Materialize().U
	for i := 2; i < 10; i++ {
		pi := &scanner.Partial{
			Objects: objectsOf(scanner.Object{FID: fidFor(0, i), Ino: ldiskfs.Ino(i), Type: ldiskfs.TypeFile}),
		}
		if err := db.Apply(0, ldiskfs.Ino(i), pi); err != nil {
			t.Fatal(err)
		}
	}
	if g, ok := old.GID(fidFor(0, 1)); !ok || g != 0 {
		t.Fatalf("stale view lookup: (%d,%v)", g, ok)
	}
	if _, ok := old.GID(fidFor(0, 5)); ok {
		t.Fatal("stale view resolved a FID interned after it was built")
	}
	if u := db.Materialize().U; u != old {
		t.Fatal("Materialize returned new storage instead of rewriting its last result")
	}
	if g, ok := old.GID(fidFor(0, 5)); !ok || g != 4 || old.N() != 9 {
		t.Fatalf("rewritten view: GID = (%d,%v), N = %d; want (4,true), 9", g, ok, old.N())
	}
}

func ExampleDeltaBuilder() {
	db := NewDeltaBuilder([]string{"mdt0"})
	_ = db.Apply(0, 1, &scanner.Partial{
		Objects: objectsOf(scanner.Object{FID: fidFor(0, 1), Ino: 1, Type: ldiskfs.TypeFile}),
	})
	mat := db.Materialize()
	fmt.Println(mat.U.N())
	db.Remove(0, 1)
	fmt.Println(db.Materialize().U.N())
	// Output:
	// 1
	// 0
}
