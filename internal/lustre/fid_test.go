package lustre

import (
	"testing"
	"testing/quick"
)

func TestFIDStringParseRoundTrip(t *testing.T) {
	f := func(seq uint64, oid, ver uint32) bool {
		fid := FID{Seq: seq, Oid: oid, Ver: ver}
		got, err := ParseFID(fid.String())
		return err == nil && got == fid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFIDBytesRoundTrip(t *testing.T) {
	f := func(seq uint64, oid, ver uint32) bool {
		fid := FID{Seq: seq, Oid: oid, Ver: ver}
		b := fid.Bytes()
		return FIDFromBytes(b[:]) == fid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseFIDErrors(t *testing.T) {
	bad := []string{
		"", "[]", "0x1:0x2:0x3", "[0x1:0x2]", "[0x1:0x2:0x3:0x4]",
		"[zz:0x2:0x3]", "[0x1:0x100000000:0x0]", "[0x1:0x2:0x100000000]",
	}
	for _, s := range bad {
		if _, err := ParseFID(s); err == nil {
			t.Errorf("ParseFID(%q) accepted", s)
		}
	}
	good, err := ParseFID(" [0x200000400:0x1:0x0] ")
	if err != nil || good != (FID{Seq: 0x200000400, Oid: 1}) {
		t.Errorf("trimmed parse: %v %v", good, err)
	}
}

func TestFIDFromBytesShort(t *testing.T) {
	if got := FIDFromBytes([]byte{1, 2, 3}); !got.IsZero() {
		t.Errorf("short input = %v", got)
	}
}

func TestFIDOrderingAndZero(t *testing.T) {
	a := FID{Seq: 1, Oid: 2, Ver: 3}
	b := FID{Seq: 1, Oid: 2, Ver: 4}
	c := FID{Seq: 1, Oid: 3, Ver: 0}
	d := FID{Seq: 2, Oid: 0, Ver: 0}
	if !a.Less(b) || !b.Less(c) || !c.Less(d) || d.Less(a) || a.Less(a) {
		t.Error("Less ordering wrong")
	}
	if !(FID{}).IsZero() || a.IsZero() {
		t.Error("IsZero wrong")
	}
	if RootFID.IsZero() {
		t.Error("root FID is zero")
	}
}

func TestEAEncodings(t *testing.T) {
	// LinkEA
	links := []LinkEntry{
		{Parent: FID{Seq: 9, Oid: 8, Ver: 7}, Name: "file.txt"},
		{Parent: RootFID, Name: "hardlink"},
	}
	enc, err := EncodeLinkEA(links)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeLinkEA(enc)
	if err != nil || len(dec) != 2 || dec[0] != links[0] || dec[1] != links[1] {
		t.Fatalf("linkEA round trip: %+v %v", dec, err)
	}
	if _, err := DecodeLinkEA([]byte{1}); err == nil {
		t.Error("short linkEA accepted")
	}
	if _, err := DecodeLinkEA([]byte{1, 0, 5, 5}); err == nil {
		t.Error("truncated linkEA accepted")
	}

	// LOVEA
	layout := Layout{StripeSize: 65536, Stripes: []StripeEntry{
		{OSTIndex: 0, ObjectFID: FID{Seq: OSTSeqBase, Oid: 1}},
		{OSTIndex: 3, ObjectFID: FID{Seq: OSTSeqBase + 3, Oid: 2}},
	}}
	lov, err := EncodeLOVEA(layout)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeLOVEA(lov)
	if err != nil || back.StripeSize != 65536 || len(back.Stripes) != 2 {
		t.Fatalf("lovEA round trip: %+v %v", back, err)
	}
	if back.Stripes[1] != layout.Stripes[1] {
		t.Errorf("stripe mismatch: %+v", back.Stripes[1])
	}
	// corrupted magic is rejected (how a corrupt layout manifests)
	lov[0] ^= 0xFF
	if _, err := DecodeLOVEA(lov); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := DecodeLOVEA(nil); err == nil {
		t.Error("nil LOVEA accepted")
	}

	// FilterFID
	ff := FilterFID{ParentFID: FID{Seq: 5, Oid: 6, Ver: 0}, StripeIndex: 4}
	got, err := DecodeFilterFID(EncodeFilterFID(ff))
	if err != nil || got != ff {
		t.Fatalf("filter-fid round trip: %+v %v", got, err)
	}
	if _, err := DecodeFilterFID([]byte{1, 2}); err == nil {
		t.Error("short filter-fid accepted")
	}

	// LMA
	fid := FID{Seq: 42, Oid: 42, Ver: 42}
	lma, err := DecodeLMA(EncodeLMA(fid))
	if err != nil || lma != fid {
		t.Fatalf("lma round trip: %v %v", lma, err)
	}
	if _, err := DecodeLMA([]byte{0}); err == nil {
		t.Error("short LMA accepted")
	}
}

// TestWalkLinkEAAllOrNothing: every truncation of a three-entry LinkEA
// fails the walk, after fn has seen exactly the entries before the cut
// (the prefix a caller taking all or nothing discards, as the scanner
// does), and fails DecodeLinkEA with the same error and no entries; the
// intact value yields each parent, raw, and name in place.
func TestWalkLinkEAAllOrNothing(t *testing.T) {
	links := []LinkEntry{
		{Parent: FID{Seq: 9, Oid: 8, Ver: 7}, Name: "a"},
		{Parent: RootFID, Name: ""},
		{Parent: FID{Seq: 1}, Name: "third"},
	}
	enc, err := EncodeLinkEA(links)
	if err != nil {
		t.Fatal(err)
	}
	walk := func(b []byte) (got []LinkEntry, err error) {
		err = WalkLinkEA(b, func(parent, name []byte) { got = append(got, LinkEntry{FIDFromBytes(parent), string(name)}) })
		return got, err
	}
	got, err := walk(enc)
	if err != nil || len(got) != 3 || got[0] != links[0] || got[1] != links[1] || got[2] != links[2] {
		t.Fatalf("intact LinkEA walks to %+v, %v", got, err)
	}
	if dec, err := DecodeLinkEA([]byte{0, 0}); err != nil || dec == nil || len(dec) != 0 {
		t.Errorf("empty LinkEA decodes to %#v, %v; want an empty, non-nil list", dec, err)
	}
	for cut := 0; cut < len(enc); cut++ {
		got, err := walk(enc[:cut])
		dec, want := DecodeLinkEA(enc[:cut])
		intact := 0
		for _, end := range []int{2 + 18 + 1, 2 + 18 + 1 + 18} { // where the first two entries end
			if end <= cut {
				intact++
			}
		}
		if err == nil || want == nil || err.Error() != want.Error() || dec != nil {
			t.Fatalf("cut at %d: walk %v, decode %v, %v", cut, err, dec, want)
		}
		if len(got) != intact || (intact > 0 && got[intact-1] != links[intact-1]) {
			t.Fatalf("cut at %d: walk saw %+v before the damage, want the first %d entries", cut, got, intact)
		}
	}
}

// TestWalkLOVEA: stripes come out in order with the stripe size, zero
// object FIDs included (a released slot is the caller's to skip), and a
// value shorter than its stripe count yields none of them.
func TestWalkLOVEA(t *testing.T) {
	layout := Layout{StripeSize: 4096, Stripes: []StripeEntry{
		{OSTIndex: 2, ObjectFID: FID{Seq: OSTSeqBase + 2, Oid: 5}},
		{OSTIndex: 0},
		{OSTIndex: 1, ObjectFID: FID{Seq: OSTSeqBase + 1, Oid: 6}},
	}}
	enc, err := EncodeLOVEA(layout)
	if err != nil {
		t.Fatal(err)
	}
	var got []StripeEntry
	size, err := WalkLOVEA(enc, func(ost uint32, object []byte) { got = append(got, StripeEntry{ost, FIDFromBytes(object)}) })
	if err != nil || size != 4096 || len(got) != 3 || got[0] != layout.Stripes[0] || got[1] != layout.Stripes[1] || got[2] != layout.Stripes[2] {
		t.Fatalf("walk: size %d stripes %+v err %v", size, got, err)
	}
	calls := 0
	if _, err := WalkLOVEA(enc[:len(enc)-1], func(uint32, []byte) { calls++ }); err == nil || calls != 0 {
		t.Errorf("truncated LOVEA: %v after %d stripes", err, calls)
	}
}
