package agg

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"faultyrank/internal/bincodec/bincodectest"
	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
)

// buildRandomDelta drives a random apply/remove sequence and returns the
// builder (same generator as the delta equivalence property test).
func buildRandomDelta(r *rand.Rand, rounds int) *DeltaBuilder {
	labels := []string{"mdt0", "ost0", "ost1"}
	const inoSpace = 40
	db := NewDeltaBuilder(labels)
	for round := 0; round < rounds; round++ {
		for op := 0; op < 1+r.Intn(12); op++ {
			srv := r.Intn(len(labels))
			ino := 1 + r.Intn(inoSpace)
			if r.Intn(3) == 0 {
				db.Remove(srv, ldiskfs.Ino(ino))
				continue
			}
			if err := db.Apply(srv, ldiskfs.Ino(ino), randomContribution(r, srv, ino, inoSpace)); err != nil {
				panic(err)
			}
		}
		if r.Intn(2) == 0 {
			db.Materialize() // interleave folds with membership churn
		}
		if r.Intn(3) == 0 {
			db.ResetDirty()
		}
	}
	return db
}

// assertMaterializedEqual compares two materialisations field by field
// (Unified carries a closure, so DeepEqual on the whole struct is out).
func assertMaterializedEqual(t *testing.T, got, want *Materialized) {
	t.Helper()
	if !reflect.DeepEqual(got.U.FIDs, want.U.FIDs) {
		t.Fatal("FID tables diverge")
	}
	if !reflect.DeepEqual(got.U.Present, want.U.Present) ||
		!reflect.DeepEqual(got.U.Types, want.U.Types) ||
		!reflect.DeepEqual(got.U.Claims, want.U.Claims) {
		t.Fatal("object state diverges")
	}
	if !reflect.DeepEqual(got.U.Edges, want.U.Edges) {
		t.Fatal("edges diverge")
	}
	if !reflect.DeepEqual(got.U.Issues, want.U.Issues) {
		t.Fatal("issues diverge")
	}
	if !reflect.DeepEqual(got.IIDOfGID, want.IIDOfGID) || got.NumIIDs != want.NumIIDs {
		t.Fatal("IID mapping diverges")
	}
	if !reflect.DeepEqual(got.DirtySeeds, want.DirtySeeds) {
		t.Fatalf("dirty seeds diverge: got %v, want %v", got.DirtySeeds, want.DirtySeeds)
	}
}

// TestDeltaSnapshotRoundTrip: encode → decode reproduces the builder
// exactly — byte-identical re-encoding (the bijectivity the fuzz target
// asserts), identical materialisation including dirty seeds, and
// identical reconstructed partials.
func TestDeltaSnapshotRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := buildRandomDelta(r, 6)

		blob := db.EncodeBinary()
		got, err := DecodeDeltaBuilder(blob)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if re := got.EncodeBinary(); !bytes.Equal(re, blob) {
			t.Fatalf("seed %d: re-encode differs (%d vs %d bytes)", seed, len(re), len(blob))
		}
		if !reflect.DeepEqual(got.Labels(), db.Labels()) {
			t.Fatalf("seed %d: labels %v vs %v", seed, got.Labels(), db.Labels())
		}
		assertMaterializedEqual(t, got.Materialize(), db.Materialize())
		for si := range db.Labels() {
			if !reflect.DeepEqual(got.ServerPartial(si), db.ServerPartial(si)) {
				t.Fatalf("seed %d: server %d partial diverges after round trip", seed, si)
			}
		}
		// The restored interner must keep assigning the same IIDs: intern
		// a FID both builders have seen and one neither has.
		if a, b := got.intern(fidFor(0, 1)), db.intern(fidFor(0, 1)); a != b {
			t.Fatalf("seed %d: known FID re-interned differently: %d vs %d", seed, a, b)
		}
		if a, b := got.intern(fidFor(9, 999)), db.intern(fidFor(9, 999)); a != b {
			t.Fatalf("seed %d: fresh FID interned differently: %d vs %d", seed, a, b)
		}
	}
}

// TestDeltaSnapshotRejectsDamage: every truncation of a valid blob and
// the classic header forgeries fail with named errors — never a panic,
// never a silently wrong builder.
func TestDeltaSnapshotRejectsDamage(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	db := buildRandomDelta(r, 4)
	blob := db.EncodeBinary()

	for n := 0; n < len(blob); n++ {
		if _, err := DecodeDeltaBuilder(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		} else if !errors.Is(err, ErrDeltaSnapshot) && !errors.Is(err, ErrDeltaSnapshotVersion) {
			t.Fatalf("truncation to %d bytes: unnamed error %v", n, err)
		}
	}

	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := DecodeDeltaBuilder(bad); !errors.Is(err, ErrDeltaSnapshotVersion) {
		t.Fatalf("bad magic: %v", err)
	}
	bad = append([]byte(nil), blob...)
	bad[4] = DeltaCodecVersion + 1
	if _, err := DecodeDeltaBuilder(bad); !errors.Is(err, ErrDeltaSnapshotVersion) {
		t.Fatalf("future version: %v", err)
	}

	if _, err := DecodeDeltaBuilder(append(append([]byte(nil), blob...), 0)); !errors.Is(err, ErrDeltaSnapshot) {
		t.Fatalf("trailing byte: %v", err)
	}
	// A lying count: 65535 server labels in a blob that cannot hold them.
	bad = append([]byte(nil), blob...)
	bad[5], bad[6] = 0xFF, 0xFF
	if _, err := DecodeDeltaBuilder(bad); !errors.Is(err, ErrDeltaSnapshot) {
		t.Fatalf("lying label count: %v", err)
	}

	// Random single-byte corruption: either rejected or — when the flip
	// lands in free-form content like an issue string — still canonical,
	// in which case it must re-encode to exactly the corrupted bytes.
	for i := 0; i < 200; i++ {
		pos := r.Intn(len(blob)-5) + 5
		mut := append([]byte(nil), blob...)
		mut[pos] ^= 1 << r.Intn(8)
		got, err := DecodeDeltaBuilder(mut)
		if err != nil {
			continue
		}
		if re := got.EncodeBinary(); !bytes.Equal(re, mut) {
			t.Fatalf("corrupt blob (byte %d) decoded non-canonically", pos)
		}
	}
}

// TestDeltaDirtySeeds: the dirty set means "changed since ResetDirty".
// Applying a contribution seeds its objects and both endpoints of its
// edges; replacing one seeds old and new; removing one seeds what it
// touched (minus vertices that died with it); ResetDirty empties it.
func TestDeltaDirtySeeds(t *testing.T) {
	db := NewDeltaBuilder([]string{"mdt0"})
	apply := func(ino int, self lustre.FID, targets ...lustre.FID) {
		t.Helper()
		p := &scanner.Partial{
			Objects: objectsOf(scanner.Object{FID: self, Ino: ldiskfs.Ino(ino), Type: ldiskfs.TypeFile}),
		}
		for _, dst := range targets {
			p.Edges.Append(scanner.Edge{Dst: dst, Kind: graph.KindLinkEA})
		}
		if err := db.Apply(0, ldiskfs.Ino(ino), p); err != nil {
			t.Fatal(err)
		}
	}

	apply(1, fidFor(0, 1), fidFor(0, 2))
	apply(2, fidFor(0, 2), fidFor(0, 1))
	mat := db.Materialize()
	if len(mat.DirtySeeds) != mat.U.N() {
		t.Fatalf("initial build: %d seeds, want all %d vertices", len(mat.DirtySeeds), mat.U.N())
	}

	db.ResetDirty()
	mat = db.Materialize()
	if len(mat.DirtySeeds) != 0 {
		t.Fatalf("after reset: %d seeds, want 0", len(mat.DirtySeeds))
	}

	// Replace inode 1's contribution: it now points at a new phantom FID
	// instead of FID 2. Old endpoints (1, 2) and the new one are dirty.
	apply(1, fidFor(0, 1), fidFor(0, 3))
	mat = db.Materialize()
	want := seedSet(t, mat, fidFor(0, 1), fidFor(0, 2), fidFor(0, 3))
	if !reflect.DeepEqual(mat.DirtySeeds, want) {
		t.Fatalf("after replace: seeds %v, want %v", mat.DirtySeeds, want)
	}

	// A failed/unconverged check does not reset: seeds accumulate.
	db.Remove(0, 2)
	mat = db.Materialize()
	// FID 2's vertex died with the removal (nothing references it), so
	// only the survivors appear, but FID 1 stays from the prior delta.
	want = seedSet(t, mat, fidFor(0, 1), fidFor(0, 3))
	if !reflect.DeepEqual(mat.DirtySeeds, want) {
		t.Fatalf("after remove: seeds %v, want %v", mat.DirtySeeds, want)
	}
}

// FuzzDecodeDeltaSnapshot asserts the codec's canonical-form invariant:
// any blob that decodes must re-encode byte-identically, and no input
// may panic or over-allocate.
func FuzzDecodeDeltaSnapshot(f *testing.F) {
	for seed := int64(0); seed < 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		f.Add(buildRandomDelta(r, 3).EncodeBinary())
	}
	f.Add(NewDeltaBuilder(nil).EncodeBinary())
	f.Fuzz(func(t *testing.T, blob []byte) {
		bincodectest.RoundTrip(t, blob, DecodeDeltaBuilder, (*DeltaBuilder).EncodeBinary)
	})
}

// seedSet maps FIDs to their sorted GIDs in mat.
func seedSet(t *testing.T, mat *Materialized, fids ...lustre.FID) []uint32 {
	t.Helper()
	out := make([]uint32, 0, len(fids))
	for _, f := range fids {
		g, ok := mat.U.GID(f)
		if !ok {
			t.Fatalf("FID %v not live in materialisation", f)
		}
		out = append(out, g)
	}
	slices.Sort(out)
	return out
}
