package agg

import (
	"encoding/binary"
	"errors"
	"slices"

	"faultyrank/internal/bincodec"
	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
)

// This file is the DeltaBuilder's durable form: a deterministic,
// versioned binary codec for the persistent interner, the cached
// per-inode contributions, and the accumulated dirty set — everything a
// restarted online tracker needs to resume from the change feed instead
// of a cold rescan. It follows the telemetry codec's discipline:
//
//   - Versioned: the blob starts with "FRDB" | version; a layout change
//     bumps DeltaCodecVersion and old blobs fail loudly.
//   - Canonical: inodes encode in ascending order per server and the
//     dirty set strictly ascending; decode REJECTS any other order, so
//     a blob either fails to decode or re-encodes byte-identically
//     (the online snapshot fuzz target leans on this).
//   - Bounded: counts from untrusted headers are sanity-checked against
//     the remaining payload before any allocation sized from them, and
//     every IID reference is range-checked against the interner table.

// DeltaCodecVersion identifies the binary layout of DeltaBuilder blobs.
// Bump on any incompatible change.
const DeltaCodecVersion = 1

const deltaMagic = "FRDB"

// ErrDeltaSnapshot is wrapped by every decode failure caused by a
// malformed blob (truncation, corruption, non-canonical form).
var ErrDeltaSnapshot = errors.New("malformed delta snapshot")

// ErrDeltaSnapshotVersion is wrapped when the blob's magic or version
// does not match this build — the mixed-version signal a deployment
// handles by falling back to a cold rescan.
var ErrDeltaSnapshotVersion = errors.New("unsupported delta snapshot version")

var deltaFormat = bincodec.Format{Name: "agg", Malformed: ErrDeltaSnapshot, Version: ErrDeltaSnapshotVersion}

// EncodeBinary renders the builder's full state as a versioned blob.
// Equal builder states always produce identical bytes: staged inodes
// are spliced in first, and the arrays then are the wire order.
func (b *DeltaBuilder) EncodeBinary() []byte {
	return b.AppendBinary(nil)
}

// AppendBinary appends EncodeBinary's blob to buf.
func (b *DeltaBuilder) AppendBinary(buf []byte) []byte {
	le := binary.LittleEndian
	buf = append(buf, deltaMagic...)
	buf = append(buf, DeltaCodecVersion)

	buf = le.AppendUint16(buf, uint16(len(b.labels)))
	for _, l := range b.labels {
		buf = bincodec.AppendStr16(buf, l)
	}

	buf = le.AppendUint32(buf, uint32(len(b.iids.fids)))
	for _, f := range b.iids.fids {
		buf = le.AppendUint64(buf, f.Seq)
		buf = le.AppendUint32(buf, f.Oid)
		buf = le.AppendUint32(buf, f.Ver)
	}

	slices.Sort(b.dirty.list) // a set: its order is the encoder's to choose
	buf = le.AppendUint32(buf, uint32(len(b.dirty.list)))
	for _, iid := range b.dirty.list {
		buf = le.AppendUint32(buf, iid)
	}

	// The arrays are the wire order: servers in order, inodes ascending,
	// each inode's objects, then its edges, then its issues.
	for _, s := range b.servers {
		s.splice(&b.scratch)
		buf = le.AppendUint32(buf, uint32(len(s.inodes)))
		var o, e uint32
		issues := s.issues
		for _, rec := range s.inodes {
			buf = le.AppendUint64(buf, uint64(rec.ino))
			buf = le.AppendUint32(buf, rec.objEnd-o)
			for ; o < rec.objEnd; o++ {
				buf = le.AppendUint32(buf, s.objs[o].iid)
				buf = le.AppendUint16(buf, uint16(s.objs[o].typ))
			}
			buf = le.AppendUint32(buf, rec.edgeEnd-e)
			for ; e < rec.edgeEnd; e++ {
				buf = le.AppendUint32(buf, s.edges[e].src)
				buf = le.AppendUint32(buf, s.edges[e].dst)
				buf = append(buf, byte(s.edges[e].kind))
			}
			n := 0
			for n < len(issues) && issues[n].ino == rec.ino {
				n++
			}
			buf = le.AppendUint32(buf, uint32(n))
			for _, is := range issues[:n] {
				buf = le.AppendUint64(buf, uint64(is.issue.Ino))
				buf = bincodec.AppendStr16(buf, is.issue.What)
			}
			issues = issues[n:]
			buf = le.AppendUint64(buf, uint64(rec.stats.InodesScanned))
			buf = le.AppendUint64(buf, uint64(rec.stats.DirentsRead))
			buf = le.AppendUint64(buf, uint64(rec.stats.EdgesEmitted))
		}
	}
	return buf
}

// Minimum on-wire record sizes, the allocation bounds for hostile
// counts.
const (
	deltaMinFID   = 16          // seq + oid + ver
	deltaMinInode = 8 + 12 + 24 // ino + three zero counts + stats
	deltaMinObj   = 6           // iid + type
	deltaMinEdge  = 9           // src + dst + kind
	deltaMinIssue = 10          // ino + empty string
)

// DecodeDeltaBuilder reconstructs a builder from an EncodeBinary blob.
// The arenas are read as they lie; the FID index is rebuilt from the
// interner table, and the per-IID reference counts and claim lists from
// the arenas once the whole blob has passed its checks. The blob is
// rejected (never panicked on) when truncated, when counts are
// implausible for the remaining payload, when any IID reference or
// canonical order is violated, or when the version does not match.
func DecodeDeltaBuilder(blob []byte) (*DeltaBuilder, error) {
	d := bincodec.NewReader(&deltaFormat, blob)
	d.Header(deltaMagic, DeltaCodecVersion)

	// Each label needs at least its 2-byte length.
	nLabels := d.Count(uint64(d.U16()), 2)
	labels := make([]string, 0, nLabels)
	for i := 0; i < nLabels && d.Err() == nil; i++ {
		labels = append(labels, d.Str16())
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	b := NewDeltaBuilder(labels)

	nFIDs := d.Count(uint64(d.U32()), deltaMinFID)
	b.iids = newFIDTable(nFIDs)
	for i := 0; i < nFIDs && d.Err() == nil; i++ {
		f := lustre.FID{Seq: d.U64(), Oid: d.U32(), Ver: d.U32()}
		if _, added := b.iids.intern(f); !added {
			d.Failf("duplicate FID %v in interner table", f)
		}
	}
	// iid reads one IID reference and range-checks it against the table.
	iid := func(what string) uint32 {
		v := d.U32()
		if v >= uint32(nFIDs) {
			d.Failf("%s IID %d out of range (%d FIDs)", what, v, nFIDs)
		}
		return v
	}

	nDirty := d.Count(uint64(d.U32()), 4)
	prevDirty := uint32(0)
	for i := 0; i < nDirty && d.Err() == nil; i++ {
		v := iid("dirty")
		if i > 0 && v <= prevDirty {
			d.Failf("dirty set not strictly ascending at IID %d", v)
		}
		prevDirty = v
		b.dirty.list = append(b.dirty.list, v)
	}

	for _, s := range b.servers {
		nInodes := d.Count(uint64(d.U32()), deltaMinInode)
		s.inodes = make([]inodeRec, 0, nInodes)
		var prevIno ldiskfs.Ino
		for i := 0; i < nInodes && d.Err() == nil; i++ {
			ino := ldiskfs.Ino(d.U64())
			if i > 0 && ino <= prevIno {
				d.Failf("server %q inodes not strictly ascending at %d", s.label, ino)
			}
			prevIno = ino

			nObjs := d.Count(uint64(d.U32()), deltaMinObj)
			for j := 0; j < nObjs && d.Err() == nil; j++ {
				s.objs = append(s.objs, contribObj{iid: iid("object"), typ: ldiskfs.FileType(d.U16())})
			}
			nEdges := d.Count(uint64(d.U32()), deltaMinEdge)
			for j := 0; j < nEdges && d.Err() == nil; j++ {
				s.edges = append(s.edges, contribEdge{src: iid("edge"), dst: iid("edge"), kind: graph.EdgeKind(d.U8())})
			}
			nIssues := d.Count(uint64(d.U32()), deltaMinIssue)
			for j := 0; j < nIssues && d.Err() == nil; j++ {
				s.issues = append(s.issues, inodeIssue{ino: ino, issue: scanner.Issue{Ino: ldiskfs.Ino(d.U64()), What: d.Str16()}})
			}
			rec := inodeRec{ino: ino, objEnd: uint32(len(s.objs)), edgeEnd: uint32(len(s.edges))}
			rec.stats.InodesScanned = int64(d.U64())
			rec.stats.DirentsRead = int64(d.U64())
			rec.stats.EdgesEmitted = int64(d.U64())
			s.inodes = append(s.inodes, rec)
		}
		s.tracked = len(s.inodes)
	}

	if err := d.Finish(); err != nil {
		return nil, err
	}
	// Every IID in the arenas is now known to be in range: the derived
	// per-IID state can index by them.
	b.refs = make([]uint32, nFIDs)
	b.claims = make([]uint32, nFIDs)
	b.dirty.in = make([]bool, nFIDs)
	for _, iid := range b.dirty.list {
		b.dirty.in[iid] = true
	}
	for _, s := range b.servers {
		b.account(s.objs, s.edges, 1)
	}
	return b, nil
}
