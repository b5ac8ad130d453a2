package scanner

import (
	"encoding/binary"

	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

var le = binary.LittleEndian

// Record sizes. A chunk's objects and edges are held as fixed-size
// little-endian records, the same bytes the wire ships, so the scanner
// appends a record once and nothing downstream converts it again:
//
//	object: 16B fid | u64 ino | u16 type
//	edge:   u32 src | 16B dst | u8 kind
//
// A FID is its 16-byte form (lustre.FID.Bytes). An edge's src is an
// ordinal, not a FID: the index of its source object's record among the
// objects of the same server's stream — in a Partial, its Objects. Every
// edge the scanner emits leaves the object of the inode it was parsed
// from, whose record the same scan wrote just before, so naming it by
// position saves 12 bytes an edge and can never name a FID no object
// carries.
const (
	ObjectSize = 16 + 8 + 2
	EdgeSize   = 4 + 16 + 1
)

// Objects is a section of object records. It is a struct rather than a
// named []byte so its length in records is never confused with its
// length in bytes. The zero value is the empty section.
type Objects struct{ b []byte }

// ObjectRecords wraps b, a whole number of object records, without
// copying: the section aliases b. An empty b gives the zero section.
func ObjectRecords(b []byte) Objects {
	if len(b)%ObjectSize != 0 {
		panic("scanner: object section is not a whole number of records")
	}
	if len(b) == 0 {
		return Objects{}
	}
	return Objects{b[:len(b):len(b)]}
}

// Bytes returns the section's records.
func (s Objects) Bytes() []byte { return s.b }

// Len returns the number of records.
func (s Objects) Len() int { return len(s.b) / ObjectSize }

// rec returns record i. The fixed size leaves one bound check per
// access, however many fields the caller reads.
func (s Objects) rec(i int) *[ObjectSize]byte { return (*[ObjectSize]byte)(s.b[i*ObjectSize:]) }

// FID returns record i's FID.
func (s Objects) FID(i int) lustre.FID { return lustre.FIDFromBytes(s.rec(i)[:16]) }

// Ino returns record i's inode number.
func (s Objects) Ino(i int) ldiskfs.Ino { return ldiskfs.Ino(le.Uint64(s.rec(i)[16:])) }

// At returns record i as an Object.
func (s Objects) At(i int) Object {
	r := s.rec(i)
	return Object{FID: lustre.FIDFromBytes(r[:16]), Ino: ldiskfs.Ino(le.Uint64(r[16:])), Type: ldiskfs.FileType(le.Uint16(r[24:]))}
}

// Append appends one record per object.
func (s *Objects) Append(objs ...Object) {
	s.b = grow(s.b, len(objs)*ObjectSize)
	for _, o := range objs {
		n := len(s.b)
		s.b = s.b[:n+ObjectSize]
		r := (*[ObjectSize]byte)(s.b[n:])
		putFID(r[:16], o.FID)
		le.PutUint64(r[16:], uint64(o.Ino))
		le.PutUint16(r[24:], uint16(o.Type))
	}
}

// Edges is a section of edge records; see Objects.
type Edges struct{ b []byte }

// EdgeRecords wraps b, a whole number of edge records, without copying:
// the section aliases b. An empty b gives the zero section.
func EdgeRecords(b []byte) Edges {
	if len(b)%EdgeSize != 0 {
		panic("scanner: edge section is not a whole number of records")
	}
	if len(b) == 0 {
		return Edges{}
	}
	return Edges{b[:len(b):len(b)]}
}

// Bytes returns the section's records.
func (s Edges) Bytes() []byte { return s.b }

// Len returns the number of records.
func (s Edges) Len() int { return len(s.b) / EdgeSize }

// rec returns record i; see Objects.rec.
func (s Edges) rec(i int) *[EdgeSize]byte { return (*[EdgeSize]byte)(s.b[i*EdgeSize:]) }

// Src returns record i's source ordinal.
func (s Edges) Src(i int) uint32 { return le.Uint32(s.rec(i)[:4]) }

// Dst returns record i's destination FID.
func (s Edges) Dst(i int) lustre.FID { return lustre.FIDFromBytes(s.rec(i)[4:20]) }

// Kind returns record i's edge kind.
func (s Edges) Kind(i int) graph.EdgeKind { return graph.EdgeKind(s.rec(i)[20]) }

// At returns record i as an Edge.
func (s Edges) At(i int) Edge {
	r := s.rec(i)
	return Edge{Src: le.Uint32(r[:4]), Dst: lustre.FIDFromBytes(r[4:20]), Kind: graph.EdgeKind(r[20])}
}

// Append appends one record per edge.
func (s *Edges) Append(edges ...Edge) {
	s.b = grow(s.b, len(edges)*EdgeSize)
	for _, e := range edges {
		n := len(s.b)
		s.b = s.b[:n+EdgeSize]
		r := (*[EdgeSize]byte)(s.b[n:])
		le.PutUint32(r[:4], e.Src)
		putFID(r[4:20], e.Dst)
		r[20] = byte(e.Kind)
	}
}

// SrcBound returns one past the largest source ordinal in the section
// (0 when it is empty): the section's edges all leave objects of a
// stream holding at least that many.
func (s Edges) SrcBound() int {
	var hi uint64
	for off := 0; off < len(s.b); off += EdgeSize {
		hi = max(hi, uint64(le.Uint32(s.b[off:]))+1)
	}
	return int(hi)
}

// put appends one record whose destination is dst's raw 16-byte FID,
// copied as it is. The scanner reserves room for an inode's edges
// before it parses them, so put grows only when a directory outruns
// that reservation.
func (s *Edges) put(src uint32, dst []byte, kind graph.EdgeKind) {
	s.b = grow(s.b, EdgeSize)
	n := len(s.b)
	s.b = s.b[:n+EdgeSize]
	r := (*[EdgeSize]byte)(s.b[n:])
	le.PutUint32(r[:4], src)
	*(*[16]byte)(r[4:20]) = [16]byte(dst)
	r[20] = byte(kind)
}

// rebase adds d to the source ordinal of every record: a block group's
// edges, written relative to the group's first object, become relative
// to the stream's.
func (s Edges) rebase(d uint32) {
	if d == 0 {
		return
	}
	for off := 0; off < len(s.b); off += EdgeSize {
		le.PutUint32(s.b[off:], le.Uint32(s.b[off:])+d)
	}
}

// putFID writes a FID's 16-byte form (lustre.FID.Bytes) in place, not
// through Bytes' array copy.
func putFID(b []byte, f lustre.FID) {
	le.PutUint64(b, f.Seq)
	le.PutUint32(b[8:], f.Oid)
	le.PutUint32(b[12:], f.Ver)
}
