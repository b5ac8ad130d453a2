package agg

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
)

// seqPartials builds partials whose FIDs cluster in sequences the way a
// scanned cluster's do, with holes, plus every shape the dense tier's
// rules have to get right: sequences just under the count and density
// thresholds, more qualifying sequences than maxSeqRuns (nSeq reaches
// 159), Oids at 0 and 2^32-1, Ver != 0 identities inside a run's span,
// duplicate claims across servers, and phantom references inside a
// run's span, just outside it, under another version and in a sequence
// nothing claims.
func seqPartials(seed int64, nSeq, nParts int) []*scanner.Partial {
	r := rand.New(rand.NewSource(seed))
	nSeq, nParts = nSeq%160, 1+nParts%5
	type span struct {
		seq  uint64
		base uint32
		n    int
	}
	var spans []span
	var objs []lustre.FID
	for s := 0; s < nSeq; s++ {
		count := []int{minRunObjects - 1, minRunObjects, minRunObjects + 1, 2 + r.Intn(200)}[r.Intn(4)]
		n := []int{count, 2*count - 1, 2 * count, 2*count + 1, count + r.Intn(3*count)}[r.Intn(5)]
		base := uint32(r.Intn(1 << 30))
		switch s {
		case 0:
			base = 0
		case 1:
			base = uint32(1<<32 - n)
		}
		seq := lustre.OSTSeqBase + uint64(s)*uint64(1+r.Intn(3)) + uint64(s)<<20
		spans = append(spans, span{seq, base, n})
		// Both ends, then count-2 distinct Oids between them, ascending
		// as Lustre hands them out.
		offs := []int{0, n - 1}
		for _, o := range r.Perm(n - 2)[:count-2] {
			offs = append(offs, o+1)
		}
		slices.Sort(offs)
		for _, o := range offs {
			objs = append(objs, lustre.FID{Seq: seq, Oid: base + uint32(o)})
		}
		if r.Intn(4) == 0 {
			objs = append(objs, lustre.FID{Seq: seq, Oid: base + uint32(r.Intn(n)), Ver: 1 + uint32(r.Intn(3))})
		}
	}
	if r.Intn(3) == 0 {
		r.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
	}
	parts := make([]*scanner.Partial, nParts)
	for i := range parts {
		parts[i] = &scanner.Partial{ServerLabel: fmt.Sprintf("srv%d", i)}
	}
	claim := func(p *scanner.Partial, f lustre.FID) {
		p.Objects.Append(scanner.Object{FID: f, Ino: ldiskfs.Ino(p.Objects.Len() + 1), Type: ldiskfs.FileType(1 + r.Intn(3))})
	}
	for i, f := range objs {
		p := parts[i*nParts/len(objs)]
		if r.Intn(3) == 0 {
			p = parts[r.Intn(nParts)]
		}
		claim(p, f)
		if r.Intn(20) == 0 {
			claim(parts[r.Intn(nParts)], f) // a duplicate identity
		}
	}
	ref := func() lustre.FID {
		if len(objs) > 0 && r.Intn(5) > 0 {
			return objs[r.Intn(len(objs))]
		}
		if len(spans) == 0 {
			return lustre.FID{Seq: 1, Oid: uint32(r.Intn(10))}
		}
		switch sp := spans[r.Intn(len(spans))]; r.Intn(4) {
		case 0: // inside the span, likely a hole
			return lustre.FID{Seq: sp.seq, Oid: sp.base + uint32(r.Intn(sp.n))}
		case 1: // just outside it
			return lustre.FID{Seq: sp.seq, Oid: sp.base + uint32(sp.n)}
		case 2: // another version of an Oid in it
			return lustre.FID{Seq: sp.seq, Oid: sp.base, Ver: 7}
		default: // a sequence nothing claims
			return lustre.FID{Seq: sp.seq + 1<<40, Oid: sp.base}
		}
	}
	// An edge leaves an object of its part; the references a source
	// could once name — phantoms included — are destinations now, two
	// per source as there used to be.
	for i := 0; i < 2*len(objs)+r.Intn(8); i++ {
		p := parts[r.Intn(nParts)]
		if p.Objects.Len() == 0 {
			continue
		}
		src := uint32(r.Intn(p.Objects.Len()))
		for range 2 {
			p.Edges.Append(scanner.Edge{Src: src, Dst: ref(), Kind: graph.EdgeKind(r.Intn(5))})
		}
	}
	return parts
}

// cutSegments splits the canonical stream of parts into segments the
// way a Builder retains chunks, with empty segments among them.
func cutSegments(r *rand.Rand, parts []*scanner.Partial) []segment {
	var segs []segment
	base := 0
	for _, p := range parts {
		objs, edges := p.Objects.Bytes(), p.Edges.Bytes()
		for len(objs)+len(edges) > 0 || r.Intn(2) == 0 {
			no := r.Intn(len(objs)/scanner.ObjectSize+1) * scanner.ObjectSize
			ne := r.Intn(len(edges)/scanner.EdgeSize+1) * scanner.EdgeSize
			segs = append(segs, segment{label: p.ServerLabel, objects: scanner.ObjectRecords(objs[:no]), edges: scanner.EdgeRecords(edges[:ne]), base: base})
			objs, edges = objs[no:], edges[ne:]
		}
		segs = append(segs, segment{label: p.ServerLabel, issues: p.Issues, base: base})
		base += p.Objects.Len()
	}
	return segs
}

// assertGIDsMatchMap: u resolves every FID of the reference merge to its
// GID, and the FIDs next to each — one Oid either side, another
// version, another sequence — exactly when the reference holds them.
func assertGIDsMatchMap(t *testing.T, label string, ref, u *Unified) {
	t.Helper()
	want := make(map[lustre.FID]uint32, len(ref.FIDs))
	for g, f := range ref.FIDs {
		want[f] = uint32(g)
	}
	for _, f := range ref.FIDs {
		for _, p := range []lustre.FID{f, {Seq: f.Seq, Oid: f.Oid + 1}, {Seq: f.Seq, Oid: f.Oid - 1}, {Seq: f.Seq, Oid: f.Oid, Ver: f.Ver + 1}, {Seq: f.Seq + 1, Oid: f.Oid}} {
			wg, wok := want[p]
			if g, ok := u.GID(p); ok != wok || g != wg && ok {
				t.Fatalf("%s: GID(%v) = %d,%v, want %d,%v", label, p, g, ok, wg, wok)
			}
		}
	}
}

// FuzzMergeSeqIndex: whatever the sequence structure, the two-tier
// index changes nothing a merge returns — MergeWorkers at 1 and 4
// workers and a merge over the same stream cut into segments equal the
// reference merge, and GID agrees with a map on every FID and on
// absent ones.
func FuzzMergeSeqIndex(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3))
	f.Add(int64(2), uint8(0), uint8(0))    // nothing at all
	f.Add(int64(3), uint8(150), uint8(4))  // more candidates than maxSeqRuns
	f.Add(int64(4), uint8(2), uint8(1))    // Oid 0 and 2^32-1 only
	f.Add(int64(5), uint8(40), uint8(255)) // five servers
	f.Fuzz(func(t *testing.T, seed int64, nSeq, nParts uint8) {
		parts := seqPartials(seed, int(nSeq), int(nParts))
		ref := mergeReference(parts)
		for _, w := range []int{1, 4} {
			label := fmt.Sprintf("workers %d", w)
			u := MergeWorkers(parts, w)
			assertUnifiedIdentical(t, label, ref, u)
			assertGIDsMatchMap(t, label, ref, u)
			assertClaims(t, label, u, claimsReference(parts, gidLookup(u), u.N()))
		}
		u := mergeObserved(cutSegments(rand.New(rand.NewSource(seed)), parts), 4, nil)
		assertUnifiedIdentical(t, "segments", ref, u)
		assertGIDsMatchMap(t, "segments", ref, u)
		assertClaims(t, "segments", u, claimsReference(parts, gidLookup(u), u.N()))
	})
}

// spanSeq returns count objects of seq whose Oids span exactly span
// values from base: count-1 consecutive ones, then base+span-1.
func spanSeq(seq uint64, base uint32, count, span int) []scanner.Object {
	objs := make([]scanner.Object, count)
	for i := range objs {
		objs[i] = scanner.Object{FID: lustre.FID{Seq: seq, Oid: base + uint32(i)}, Ino: ldiskfs.Ino(i + 1)}
	}
	objs[count-1].FID.Oid = base + uint32(span-1)
	return objs
}

// runSeqs lists the sequences the index keeps a run for, ascending.
func runSeqs(x *seqIndex) []uint64 {
	var seqs []uint64
	for _, r := range x.runs {
		seqs = append(seqs, r.seq)
	}
	slices.Sort(seqs)
	return seqs
}

// TestSeqIndexRunRules pins the dense tier's rules: a run needs
// minRunObjects objects spanning at most twice as many Oids, Ver != 0
// objects count for nothing, a span may end at either Oid limit, and
// with more candidates than maxSeqRuns the most populous win. Each
// input also merges as the reference does.
func TestSeqIndexRunRules(t *testing.T) {
	const top = 1<<32 - minRunObjects
	var objs []scanner.Object
	objs = append(objs, spanSeq(1, 0, minRunObjects, 2*minRunObjects)...)   // at the density limit: a run
	objs = append(objs, spanSeq(2, 5, minRunObjects-1, minRunObjects-1)...) // one object short
	objs = append(objs, spanSeq(3, 0, minRunObjects, 2*minRunObjects+1)...) // one Oid too sparse
	objs = append(objs, spanSeq(4, top, minRunObjects, minRunObjects)...)   // ends at 2^32-1: a run
	objs = append(objs, spanSeq(5, 0, 1, 1)...)                             // Oid 0 alone
	for _, o := range spanSeq(6, 0, 2*minRunObjects, 2*minRunObjects) {     // versioned only
		o.FID.Ver = 1
		objs = append(objs, o)
	}
	objs[len(objs)-1].FID.Seq = 1 // a versioned FID inside run 1's span
	part := &scanner.Partial{ServerLabel: "mdt0", Objects: objectsOf(objs...), Edges: edgesOf(
		scanner.Edge{Dst: lustre.FID{Seq: 1, Oid: 100}},               // a hole in run 1
		scanner.Edge{Dst: lustre.FID{Seq: 1, Oid: 2 * minRunObjects}}, // just past run 1
		scanner.Edge{Dst: lustre.FID{Seq: 4, Oid: top - 1}},           // just before run 4
		scanner.Edge{Dst: lustre.FID{Seq: 1, Oid: 101}},               // another hole
		scanner.Edge{Src: 5, Dst: lustre.FID{Seq: 4, Oid: top}},       // a claimed FID
	)}
	x := newSeqIndex([]segment{{objects: part.Objects}}, len(objs))
	if got, want := runSeqs(x), []uint64{1, 4}; !slices.Equal(got, want) {
		t.Fatalf("runs for sequences %v, want %v", got, want)
	}
	assertMergeMatchesReference(t, "rules", []*scanner.Partial{part})

	// 70 qualifying sequences: the 64 most populous keep a run.
	var many []scanner.Object
	for s := 0; s < maxSeqRuns+6; s++ {
		many = append(many, spanSeq(uint64(100+s), 7, minRunObjects+s, minRunObjects+s)...)
	}
	x = newSeqIndex([]segment{{objects: objectsOf(many...)}}, len(many))
	if got := runSeqs(x); len(got) != maxSeqRuns || got[0] != 106 || got[maxSeqRuns-1] != 169 {
		t.Fatalf("with %d candidates: runs for %v, want sequences 106..169", maxSeqRuns+6, got)
	}
	assertMergeMatchesReference(t, "run cap", []*scanner.Partial{{ServerLabel: "ost0", Objects: objectsOf(many...)}})
}

// bytes is what the index holds beyond the id -> FID table both tiers
// share: the fallback's slots, the dense runs and their headers — the
// sum newSeqIndex's budget bounds.
func (x *seqIndex) bytes() int {
	n := 4*len(x.tab.slots) + len(x.runs)*int(unsafe.Sizeof(seqRun{}))
	for i := range x.runs {
		n += 4 * len(x.runs[i].ids)
	}
	return n
}

// replacedTableBytes is what the merge's single FID table cost before
// the dense tier: its slots after interning every object, then every
// edge endpoint, in canonical order.
func replacedTableBytes(parts []*scanner.Partial) int {
	var nObj int
	for _, p := range parts {
		nObj += p.Objects.Len()
	}
	tab := newFIDTable(nObj)
	for _, p := range parts {
		for j := range p.Objects.Len() {
			o := p.Objects.At(j)
			tab.intern(o.FID)
		}
	}
	for _, p := range parts {
		for j := range p.Edges.Len() {
			tab.intern(p.Edges.Dst(j))
		}
	}
	return 4 * len(tab.slots)
}

// agedSmall is the benchmark's aged cluster shape at 4 000 MDT inodes,
// built once per test binary.
var agedSmall = sync.OnceValues(func() ([]*scanner.Partial, error) { return agedParts(4000, 0) })

// TestMergeIndexBytesBounded: the index never holds more than the table
// it replaced — on an aged cluster, where nearly every FID sits in a
// run, and on adversarial inputs: runs at exactly the density limit
// whose table would sit just past a power of two (the budget must then
// drop them), and sparse sequences with phantoms in a sequence nothing
// claims.
func TestMergeIndexBytesBounded(t *testing.T) {
	aged, err := agedSmall()
	if err != nil {
		t.Fatal(err)
	}
	var limit []scanner.Object
	for s := 0; s < maxSeqRuns; s++ {
		limit = append(limit, spanSeq(uint64(s), 0, minRunObjects, 2*minRunObjects)...)
	}
	sparse := randomPartials(9, 3, 3000, 6000)
	old := sparse[0].Edges
	sparse[0].Edges = scanner.Edges{}
	for i := range old.Len() {
		e := old.At(i)
		e.Dst = lustre.FID{Seq: 1 << 50, Oid: uint32(i)}
		sparse[0].Edges.Append(e)
	}
	for _, tc := range []struct {
		name  string
		parts []*scanner.Partial
		runs  bool
	}{
		{"aged", aged, true},
		{"density limit", []*scanner.Partial{{ServerLabel: "ost0", Objects: objectsOf(limit...)}}, false},
		{"sparse with phantoms", sparse, false},
	} {
		u := MergeWorkers(tc.parts, 2)
		got, table := u.byFID.bytes(), replacedTableBytes(tc.parts)
		if got > table {
			t.Errorf("%s: index holds %d bytes, the table it replaces %d", tc.name, got, table)
		}
		if (len(u.byFID.runs) > 0) != tc.runs {
			t.Errorf("%s: %d runs, want runs %v", tc.name, len(u.byFID.runs), tc.runs)
		}
		t.Logf("%s: %d vertices, %d runs, index %d bytes, replaced table %d", tc.name, u.N(), len(u.byFID.runs), got, table)
	}
}

// TestSeqIndexAllocsIndependentOfSequences: the pre-pass tallies in a
// fixed table, so building the index costs the same few allocations
// whether the objects fill ten sequences or each has its own.
func TestSeqIndexAllocsIndependentOfSequences(t *testing.T) {
	var few, each []scanner.Object
	for s := 0; s < 10; s++ {
		few = append(few, spanSeq(uint64(s), 0, 500, 500)...)
	}
	for s := 0; s < 5000; s++ {
		each = append(each, spanSeq(uint64(s), 0, 1, 1)...)
	}
	for _, objs := range [][]scanner.Object{few, each} {
		segs := []segment{{objects: objectsOf(objs...)}}
		// The index, its id -> FID table, its slots, the runs and their ids.
		if allocs := testing.AllocsPerRun(5, func() { newSeqIndex(segs, len(objs)) }); allocs > 5 {
			t.Errorf("newSeqIndex over %d objects: %v allocations, want at most 5", len(objs), allocs)
		}
	}
}
