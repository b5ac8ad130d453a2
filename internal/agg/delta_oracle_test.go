package agg

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
)

// script is a byte string read as a sequence of small choices; past its
// end every choice is 0 and done reports true.
type script struct {
	b []byte
}

func (s *script) done() bool { return len(s.b) == 0 }

// pick returns a choice in [0, n).
func (s *script) pick(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0]) % n
	s.b = s.b[1:]
	return v
}

// heldClaims is the claim lists some earlier round handed out, with deep
// copies taken at that moment. The rest of a Materialized is rewritten by
// the next round; a claim list, once handed out, is never written again.
type heldClaims struct {
	lists [][]ObjectLoc
	copy  [][]ObjectLoc
}

func holdClaims(u *Unified) heldClaims {
	h := heldClaims{lists: slices.Clone(u.Claims), copy: make([][]ObjectLoc, len(u.Claims))}
	for g, l := range u.Claims {
		h.copy[g] = slices.Clone(l)
	}
	return h
}

// deltaOracle drives a DeltaBuilder and the map-based reference through
// the same calls and compares everything either returns.
type deltaOracle struct {
	t      *testing.T
	labels []string
	db     *DeltaBuilder
	ref    *refDelta
	last   []map[ldiskfs.Ino]*scanner.Partial // last partial applied, per server
	held   []heldClaims
	// prev is what db's last Materialize returned, which the next one must
	// rewrite rather than replace.
	prev *Materialized
}

const oracleInoSpace = 24

func newDeltaOracle(t *testing.T, servers int) *deltaOracle {
	o := &deltaOracle{t: t}
	for i := 0; i < servers; i++ {
		label := "mdt0"
		if i > 0 {
			label = fmt.Sprintf("ost%d", i-1)
		}
		o.labels = append(o.labels, label)
		o.last = append(o.last, make(map[ldiskfs.Ino]*scanner.Partial))
	}
	o.db, o.ref = NewDeltaBuilder(o.labels), newRefDelta(o.labels)
	return o
}

// contribution fabricates one inode's scan result from the script: it
// usually claims its own FID (in one of three versions, so a refresh can
// change identity), sometimes claims another inode's too or nothing at
// all, points at up to three peers on any server, and rarely carries an
// issue.
func (o *deltaOracle) contribution(s *script, srv, ino int) *scanner.Partial {
	own := func(srv, ino, ver int) lustre.FID {
		f := fidFor(srv, ino)
		f.Ver = uint32(ver)
		return f
	}
	self := own(srv, ino, s.pick(3))
	types := []ldiskfs.FileType{ldiskfs.TypeFile, ldiskfs.TypeDir, ldiskfs.TypeObject}
	p := &scanner.Partial{Stats: scanner.Stats{InodesScanned: 1, DirentsRead: int64(s.pick(3))}}
	switch s.pick(8) {
	case 0: // an inode with no identity
	case 1: // a stolen identity beside its own
		p.Objects.Append(scanner.Object{FID: self, Ino: ldiskfs.Ino(ino), Type: types[s.pick(3)]},
			scanner.Object{FID: own(s.pick(len(o.labels)), 1+s.pick(oracleInoSpace), 0), Ino: ldiskfs.Ino(ino), Type: types[s.pick(3)]})
	case 2: // the same identity twice
		p.Objects.Append(scanner.Object{FID: self, Ino: ldiskfs.Ino(ino), Type: types[s.pick(3)]},
			scanner.Object{FID: self, Ino: ldiskfs.Ino(ino), Type: types[s.pick(3)]})
	default:
		p.Objects.Append(scanner.Object{FID: self, Ino: ldiskfs.Ino(ino), Type: types[s.pick(3)]})
	}
	kinds := []graph.EdgeKind{graph.KindDirent, graph.KindLinkEA, graph.KindLOVEA, graph.KindFilterFID}
	for k := s.pick(4); k > 0 && p.Objects.Len() > 0; k-- { // edges leave an object
		dst := own(s.pick(len(o.labels)), 1+s.pick(oracleInoSpace), s.pick(2))
		p.Edges.Append(scanner.Edge{Dst: dst, Kind: kinds[s.pick(len(kinds))]})
		p.Stats.EdgesEmitted++
	}
	if s.pick(8) == 0 {
		p.Issues = append(p.Issues, scanner.Issue{Ino: ldiskfs.Ino(ino), What: fmt.Sprintf("synthetic damage %d", s.pick(4))})
		if s.pick(2) == 0 {
			p.Issues = append(p.Issues, scanner.Issue{Ino: ldiskfs.Ino(ino + 1), What: "and more"})
		}
	}
	return p
}

func (o *deltaOracle) apply(srv, ino int, p *scanner.Partial) {
	o.t.Helper()
	if err := o.db.Apply(srv, ldiskfs.Ino(ino), p); err != nil {
		o.t.Fatal(err)
	}
	if err := o.ref.apply(srv, ldiskfs.Ino(ino), p); err != nil {
		o.t.Fatal(err)
	}
	o.last[srv][ldiskfs.Ino(ino)] = p
}

func (o *deltaOracle) remove(srv, ino int) {
	o.db.Remove(srv, ldiskfs.Ino(ino))
	o.ref.remove(srv, ldiskfs.Ino(ino))
	delete(o.last[srv], ldiskfs.Ino(ino))
}

// trackedInode picks an inode the reference tracks on srv (0 if none).
func (o *deltaOracle) trackedInode(s *script, srv int) int {
	inos := make([]ldiskfs.Ino, 0, len(o.last[srv]))
	for ino := range o.last[srv] {
		inos = append(inos, ino)
	}
	if len(inos) == 0 {
		return 0
	}
	slices.Sort(inos)
	return int(inos[s.pick(len(inos))])
}

// mutate runs one scripted mutation, then checks membership — which must
// agree while the change is still staged, not only after the next read.
func (o *deltaOracle) mutate(s *script) {
	o.t.Helper()
	srv := s.pick(len(o.labels))
	switch s.pick(9) {
	case 0, 1: // apply: a first sighting or a replacement, whichever the inode is
		ino := 1 + s.pick(oracleInoSpace)
		o.apply(srv, ino, o.contribution(s, srv, ino))
	case 2: // past the last tracked inode
		ino := oracleInoSpace + 1 + s.pick(8)
		o.apply(srv, ino, o.contribution(s, srv, ino))
	case 3: // re-apply identical
		if ino := o.trackedInode(s, srv); ino != 0 {
			o.apply(srv, ino, o.last[srv][ldiskfs.Ino(ino)])
		}
	case 4: // replace
		if ino := o.trackedInode(s, srv); ino != 0 {
			o.apply(srv, ino, o.contribution(s, srv, ino))
		}
	case 5: // remove
		if ino := o.trackedInode(s, srv); ino != 0 {
			o.remove(srv, ino)
		}
	case 6: // remove, then re-add before anything reads
		if ino := o.trackedInode(s, srv); ino != 0 {
			p := o.last[srv][ldiskfs.Ino(ino)]
			o.remove(srv, ino)
			o.checkMembership()
			if s.pick(2) == 0 {
				p = o.contribution(s, srv, ino)
			}
			o.apply(srv, ino, p)
		}
	case 7: // remove untracked
		ino := 1 + s.pick(oracleInoSpace+8)
		if !o.ref.tracked(srv, ldiskfs.Ino(ino)) {
			o.remove(srv, ino)
		}
	case 8:
		o.db.ResetDirty()
		o.ref.resetDirty()
	}
	o.checkMembership()
}

func (o *deltaOracle) checkMembership() {
	o.t.Helper()
	for srv := -1; srv <= len(o.labels); srv++ {
		if got, want := o.db.TrackedCount(srv), o.ref.trackedCount(srv); got != want {
			o.t.Fatalf("server %d: TrackedCount %d, reference %d", srv, got, want)
		}
		for ino := ldiskfs.Ino(0); ino <= oracleInoSpace+9; ino++ {
			if got, want := o.db.Tracked(srv, ino), o.ref.tracked(srv, ino); got != want {
				o.t.Fatalf("server %d ino %d: Tracked %v, reference %v", srv, ino, got, want)
			}
		}
	}
}

// read compares everything the builder hands out with the reference,
// and every claim list handed out earlier with its copy.
func (o *deltaOracle) read(s *script) {
	o.t.Helper()
	switch s.pick(4) {
	case 0: // partials first: a server spliced on its own
		o.checkPartials()
	case 1: // through the codec, and carry on with what came back
		blob := o.db.EncodeBinary()
		if want := o.ref.encodeReference(); !bytes.Equal(blob, want) {
			o.t.Fatalf("EncodeBinary differs from the reference encoding (%d vs %d bytes)", len(blob), len(want))
		}
		back, err := DecodeDeltaBuilder(blob)
		if err != nil {
			o.t.Fatalf("decode of own encoding: %v", err)
		}
		if re := back.EncodeBinary(); !bytes.Equal(re, blob) {
			o.t.Fatal("re-encode differs")
		}
		o.db, o.prev = back, nil
		o.checkMembership()
	}
	got, want := o.db.Materialize(), o.ref.materializeReference()
	assertMaterializedEqual(o.t, got, want)
	for g, f := range got.U.FIDs {
		if gg, ok := got.U.GID(f); !ok || gg != uint32(g) {
			o.t.Fatalf("GID(%v) = (%d, %v), want %d", f, gg, ok, g)
		}
	}
	o.checkPartials()
	o.checkMembership()
	if o.prev != nil && (got != o.prev || got.U != o.prev.U) {
		o.t.Fatal("Materialize returned new storage instead of rewriting its last result")
	}
	o.prev = got
	for _, h := range o.held {
		if !reflect.DeepEqual(h.lists, h.copy) {
			o.t.Fatal("a claim list handed out by an earlier Materialize was written to")
		}
	}
	o.held = append(o.held, holdClaims(got.U))
}

func (o *deltaOracle) checkPartials() {
	o.t.Helper()
	for srv := -1; srv <= len(o.labels); srv++ {
		if got, want := o.db.ServerPartial(srv), o.ref.serverPartial(srv); !reflect.DeepEqual(got, want) {
			o.t.Fatalf("server %d partial diverges:\n got  %+v\n want %+v", srv, got, want)
		}
	}
}

// runDeltaScript is the step function the property test and the fuzz
// target share: bursts of mutations, each followed by a full read.
func runDeltaScript(t *testing.T, b []byte) {
	s := &script{b: b}
	o := newDeltaOracle(t, 1+s.pick(4))
	for !s.done() {
		for k := 1 + s.pick(6); k > 0; k-- {
			o.mutate(s)
		}
		o.read(s)
	}
}

// TestDeltaMatchesReferenceProperty: for random scripts of apply /
// re-apply identical / replace / remove / remove-then-re-add /
// remove-untracked / reset-dirty / encode-decode-and-continue over one
// to four servers, the flat store returns what the map-based
// implementation it replaced returns — Materialized, partials,
// membership, snapshot bytes — rewrites its one result in place, and
// leaves the claim lists it handed out alone.
func TestDeltaMatchesReferenceProperty(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, 200+r.Intn(600))
		r.Read(b)
		runDeltaScript(t, b)
	}
}

// FuzzDeltaOps runs the same step function from fuzz bytes.
func FuzzDeltaOps(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, 120)
		r.Read(b)
		f.Add(b)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 4096 {
			b = b[:4096]
		}
		runDeltaScript(t, b)
	})
}

// TestSpliceMatchesRebuild checks the in-place splice against building
// the result from scratch, over edits that shrink, grow and do both.
func TestSpliceMatchesRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 2000; round++ {
		a := make([]int, r.Intn(40))
		for i := range a {
			a[i] = i
		}
		var edits []edit[int]
		var want []int
		at := 0
		for r.Intn(6) != 0 {
			skip := r.Intn(6)
			if at+skip > len(a) {
				break
			}
			want = append(want, a[at:at+skip]...)
			at += skip
			// Insert-only edits may share a position, as two new inodes
			// between the same neighbours do.
			e := edit[int]{at: at, del: r.Intn(min(4, len(a)-at+1))}
			for k := r.Intn(4); k > 0; k-- {
				e.ins = append(e.ins, -1-len(want)-len(e.ins))
			}
			want = append(want, e.ins...)
			at += e.del
			edits = append(edits, e)
		}
		want = append(want, a[at:]...)
		// Vary the spare capacity: both the in-place and the regrown path.
		in := append(make([]int, 0, len(a)+r.Intn(8)), a...)
		if got := splice(in, edits); !slices.Equal(got, want) {
			t.Fatalf("round %d: splice(%v, %+v) = %v, want %v", round, a, edits, got, want)
		}
	}
}
