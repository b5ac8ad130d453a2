package agg

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"faultyrank/internal/graph"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
	"faultyrank/internal/workload"
)

// mergeReference is the original single-threaded first-appearance merge,
// kept as the executable specification MergeWorkers is tested against
// (and nothing else should call). It indexes with a plain map so the
// comparison also covers the FID table.
func mergeReference(parts []*scanner.Partial) *Unified {
	var nObj, nEdge int
	for _, p := range parts {
		nObj += p.Objects.Len()
		nEdge += p.Edges.Len()
	}
	u := &Unified{Edges: make([]graph.Edge, 0, nEdge)}
	byFID := make(map[lustre.FID]uint32)
	gid := func(f lustre.FID) uint32 {
		if g, ok := byFID[f]; ok {
			return g
		}
		g := uint32(len(u.FIDs))
		byFID[f] = g
		u.FIDs = append(u.FIDs, f)
		u.Present = append(u.Present, false)
		u.Types = append(u.Types, ldiskfs.TypeFree)
		u.Claims = append(u.Claims, nil)
		return g
	}
	// Pass 1: physically present objects claim their FIDs.
	for _, p := range parts {
		for j := range p.Objects.Len() {
			o := p.Objects.At(j)
			g := gid(o.FID)
			if !u.Present[g] {
				u.Present[g] = true
				u.Types[g] = o.Type
			}
			u.Claims[g] = append(u.Claims[g], ObjectLoc{Server: p.ServerLabel, Ino: o.Ino})
		}
		for _, is := range p.Issues {
			u.Issues = append(u.Issues, fmt.Sprintf("%s: %s", p.ServerLabel, is))
		}
	}
	// Pass 2: edges; a source is one of its part's objects, and unseen
	// destinations become phantom vertices.
	for _, p := range parts {
		for j := range p.Edges.Len() {
			e := p.FIDEdge(j)
			u.Edges = append(u.Edges, graph.Edge{
				Src: gid(e.Src), Dst: gid(e.Dst), Kind: e.Kind,
			})
		}
	}
	return u
}

// assertUnifiedIdentical compares every externally observable field of
// two unified graphs: the GID space (FIDs), the translated edge list,
// presence, types, claim order and issues. Fields compare with
// reflect.DeepEqual, except that a nil and an empty field are the same
// (an empty merge says "no vertices" either way).
func assertUnifiedIdentical(t *testing.T, label string, want, got *Unified) {
	t.Helper()
	for _, f := range []struct {
		name      string
		want, got any
	}{
		{"FID table (GID space)", want.FIDs, got.FIDs},
		{"edge list", want.Edges, got.Edges},
		{"Present", want.Present, got.Present},
		{"Types", want.Types, got.Types},
		{"Claims", want.Claims, got.Claims},
		{"Issues", want.Issues, got.Issues},
	} {
		bothEmpty := reflect.ValueOf(f.want).Len() == 0 && reflect.ValueOf(f.got).Len() == 0
		if !bothEmpty && !reflect.DeepEqual(f.want, f.got) {
			t.Fatalf("%s: %s diverges", label, f.name)
		}
	}
	for g, f := range want.FIDs {
		gg, ok := got.GID(f)
		if !ok || gg != uint32(g) {
			t.Fatalf("%s: GID(%v) = %d,%v, want %d", label, f, gg, ok, g)
		}
	}
}

// randomPartials builds a fixed pseudo-random set of partial graphs
// with heavy FID overlap across servers (shared sequences), duplicate
// claims and phantom references — the shapes that stress first-
// appearance ordering.
func randomPartials(seed int64, nParts, nObj, nEdge int) []*scanner.Partial {
	r := rand.New(rand.NewSource(seed))
	fid := func() lustre.FID {
		return lustre.FID{Seq: uint64(r.Intn(7)), Oid: uint32(r.Intn(nObj * 2)), Ver: uint32(r.Intn(2))}
	}
	parts := make([]*scanner.Partial, nParts)
	for pi := range parts {
		p := &scanner.Partial{ServerLabel: fmt.Sprintf("srv%d", pi)}
		for i := 0; i < nObj; i++ {
			p.Objects.Append(scanner.Object{
				FID: fid(), Ino: ldiskfs.Ino(i + 1), Type: ldiskfs.FileType(1 + r.Intn(3)),
			})
		}
		for i := 0; i < nEdge && nObj > 0; i++ {
			p.Edges.Append(scanner.Edge{
				Src: uint32(r.Intn(nObj)), Dst: fid(), Kind: graph.EdgeKind(r.Intn(5)),
			})
		}
		if r.Intn(2) == 0 {
			p.Issues = append(p.Issues, scanner.Issue{Ino: ldiskfs.Ino(r.Intn(99)), What: "synthetic damage"})
		}
		parts[pi] = p
	}
	return parts
}

// assertMergeMatchesReference: MergeWorkers yields a Unified identical
// to the single-threaded reference merge — same FID table, edges,
// presence, types, claims order, issues and lookups — at every worker
// count.
func assertMergeMatchesReference(t *testing.T, label string, parts []*scanner.Partial) {
	t.Helper()
	ref := mergeReference(parts)
	for _, w := range []int{1, 2, 3, 8} {
		assertUnifiedIdentical(t, fmt.Sprintf("%s workers %d", label, w), ref, MergeWorkers(parts, w))
	}
}

// TestMergeMatchesReference: random partials with heavy cross-server
// overlap, in shuffled-but-fixed part orders.
func TestMergeMatchesReference(t *testing.T) {
	base := randomPartials(42, 5, 300, 900)
	assertMergeMatchesReference(t, "order 0", base)
	// Both merges see the same permutation, so outputs must still be
	// identical (the GID space legitimately changes with partial order
	// — but identically for both).
	for _, seed := range []int64{1, 7} {
		perm := rand.New(rand.NewSource(seed)).Perm(len(base))
		shuffled := make([]*scanner.Partial, len(base))
		for i, j := range perm {
			shuffled[i] = base[j]
		}
		assertMergeMatchesReference(t, fmt.Sprintf("shuffle seed %d", seed), shuffled)
	}
}

// TestMergeMatchesReferenceCluster: same property on real scanner
// output from a simulated cluster, where FIDs have realistic sequence
// structure — whole, and as a degraded run that lost the MDT, where
// every file FID an OST object points back at is a phantom.
func TestMergeMatchesReferenceCluster(t *testing.T) {
	parts := scanCluster(t, smallCluster(t))
	assertMergeMatchesReference(t, "cluster", parts)
	assertMergeMatchesReference(t, "OSTs only", parts[1:])
	if u := MergeWorkers(parts[1:], 0); len(u.Phantoms()) == 0 {
		t.Fatal("OST-only merge has no phantoms: the test lost its point")
	}
}

// TestMergeMatchesReferenceAllPhantom: each part has one object, the
// source of all its edges, and every destination is a phantom, so the
// table starts at its minimum size and nearly every vertex is interned
// — and the table grown — by the sequential resolve pass, in edge
// order.
func TestMergeMatchesReferenceAllPhantom(t *testing.T) {
	parts := randomPartials(5, 4, 200, 700)
	for _, p := range parts {
		p.Objects = scanner.ObjectRecords(p.Objects.Bytes()[:scanner.ObjectSize])
		edges := p.Edges
		p.Edges = scanner.Edges{}
		for j := range edges.Len() {
			e := edges.At(j)
			e.Src, e.Dst.Seq = 0, e.Dst.Seq+1<<40 // a sequence no object has
			p.Edges.Append(e)
		}
	}
	assertMergeMatchesReference(t, "phantom destinations", parts)
	u := MergeWorkers(parts, 3)
	if u.N() <= minFIDSlots || len(u.Phantoms()) < u.N()-len(parts) {
		t.Fatalf("want a graph of phantoms past the minimum table size, got N=%d phantoms=%d", u.N(), len(u.Phantoms()))
	}
	for _, g := range u.Phantoms() {
		if c := u.Claims[g]; c != nil {
			t.Fatalf("phantom %d has claims %v", g, c)
		}
	}
}

// TestMergeCrossServerDuplicateClaims: one FID claimed on three servers
// (twice on one of them) keeps every claim in canonical order, takes the
// first claimant's type, and no claim list can grow into its
// neighbour's backing array.
func TestMergeCrossServerDuplicateClaims(t *testing.T) {
	shared, other := lustre.FID{Seq: 9, Oid: 1}, lustre.FID{Seq: 9, Oid: 2}
	parts := []*scanner.Partial{
		{ServerLabel: "mdt0", Objects: objectsOf(
			scanner.Object{FID: other, Ino: 3, Type: ldiskfs.TypeDir},
			scanner.Object{FID: shared, Ino: 4, Type: ldiskfs.TypeFile},
		)},
		{ServerLabel: "ost0"},
		{ServerLabel: "ost1", Objects: objectsOf(
			scanner.Object{FID: shared, Ino: 7, Type: ldiskfs.TypeObject},
			scanner.Object{FID: shared, Ino: 8, Type: ldiskfs.TypeObject},
		)},
		{ServerLabel: "ost2", Objects: objectsOf(scanner.Object{FID: shared, Ino: 2, Type: ldiskfs.TypeDir})},
	}
	assertMergeMatchesReference(t, "duplicates", parts)
	u := MergeWorkers(parts, 2)
	g, _ := u.GID(shared)
	want := []ObjectLoc{{"mdt0", 4}, {"ost1", 7}, {"ost1", 8}, {"ost2", 2}}
	if !reflect.DeepEqual(u.Claims[g], want) || u.Types[g] != ldiskfs.TypeFile {
		t.Fatalf("claims %v type %v", u.Claims[g], u.Types[g])
	}
	for g, c := range u.Claims {
		if len(c) != cap(c) {
			t.Fatalf("claims[%d]: len %d cap %d — an append would write into another vertex's claims", g, len(c), cap(c))
		}
	}
}

// TestMergeEmpty: no partials, and empty partials between full ones,
// degrade gracefully.
func TestMergeEmpty(t *testing.T) {
	for _, parts := range [][]*scanner.Partial{nil, {}, {{ServerLabel: "mdt0"}}} {
		assertMergeMatchesReference(t, "empty", parts)
		u := MergeWorkers(parts, 4)
		if u.N() != 0 || len(u.Edges) != 0 {
			t.Fatalf("empty merge: N=%d edges=%d", u.N(), len(u.Edges))
		}
		if _, ok := u.GID(lustre.RootFID); ok {
			t.Fatal("GID hit on empty unified graph")
		}
	}
	full := randomPartials(8, 2, 50, 120)
	assertMergeMatchesReference(t, "empty parts interleaved", []*scanner.Partial{
		{ServerLabel: "e0"}, full[0], {ServerLabel: "e1", Issues: []scanner.Issue{{Ino: 1, What: "only an issue"}}}, full[1], {ServerLabel: "e2"},
	})
}

// TestMergeAllocsIndependentOfSize: the merge allocates per part and per
// output array, never per object, edge or vertex.
func TestMergeAllocsIndependentOfSize(t *testing.T) {
	allocs := func(nObj int) float64 {
		parts := randomPartials(1, 3, nObj, 2*nObj)
		return testing.AllocsPerRun(5, func() { MergeWorkers(parts, 2) })
	}
	small, large := allocs(500), allocs(16000)
	if large > small+8 { // slack for the 32x size: none of it is per item
		t.Fatalf("MergeWorkers allocations grow with input size: %v at 500 objects/part, %v at 16000", small, large)
	}
}

// agedParts scans the benchmark's cluster shape — 8 OSTs, every file
// striped over all of them, compact geometry, aged to mdtInodes with
// 15 % churn — after planting one Fig. 7 fault in each of faults
// six-file regions, the scenarios in turn, as fault_repair does. MDT
// first, then the OSTs.
func agedParts(mdtInodes int64, faults int) ([]*scanner.Partial, error) {
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 8, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		return nil, err
	}
	if _, err := workload.Age(c, workload.AgeSpec{TargetMDTInodes: mdtInodes, ChurnFraction: 0.15, Seed: 1}); err != nil {
		return nil, err
	}
	const files = 6
	for i := 0; i < faults; i++ {
		region := fmt.Sprintf("/region%03d", i)
		if err := c.MkdirAll(region); err != nil {
			return nil, err
		}
		for f := 0; f < files; f++ {
			if _, err := c.Create(fmt.Sprintf("%s/f%02d", region, f), 3*64<<10); err != nil {
				return nil, err
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < faults; i++ {
		target := fmt.Sprintf("/region%03d/f%02d", i, r.Intn(files))
		if _, err := inject.Inject(c, inject.Scenario(i%inject.NumScenarios), target); err != nil {
			return nil, err
		}
	}
	var parts []*scanner.Partial
	for _, img := range clusterImages(c) {
		p, err := scanner.ScanImage(img, 0)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	return parts, nil
}

// BenchmarkMerge times the reference merge against MergeWorkers at one
// worker and at GOMAXPROCS on two inputs: the cold_check_tcp cluster
// (24 000 MDT inodes, aged), where nearly every FID resolves in the
// dense tier, and the fault_repair one (6 000 MDT inodes plus 256 Fig. 7
// faults), whose phantoms and minted identities take the fallback.
func BenchmarkMerge(b *testing.B) {
	for _, in := range []struct {
		name      string
		mdtInodes int64
		faults    int
	}{{"aged", 24000, 0}, {"faulted", 6000, 256}} {
		parts, err := agedParts(in.mdtInodes, in.faults)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(in.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				mergeReference(parts)
			}
		})
		for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/workers=%d", in.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					MergeWorkers(parts, w)
				}
			})
		}
	}
}
