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
// Equal builder states always produce identical bytes: membership
// buffers are folded first and every collection encodes in canonical
// order.
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

	dirty := make([]uint32, 0, len(b.dirty))
	for iid := range b.dirty {
		dirty = append(dirty, iid)
	}
	slices.Sort(dirty)
	buf = le.AppendUint32(buf, uint32(len(dirty)))
	for _, iid := range dirty {
		buf = le.AppendUint32(buf, iid)
	}

	for _, s := range b.servers {
		s.fold()
		buf = le.AppendUint32(buf, uint32(len(s.sorted)))
		for _, ino := range s.sorted {
			c := s.contrib[ino]
			buf = le.AppendUint64(buf, uint64(ino))
			buf = le.AppendUint32(buf, uint32(len(c.objs)))
			for _, o := range c.objs {
				buf = le.AppendUint32(buf, o.iid)
				buf = le.AppendUint16(buf, uint16(o.typ))
			}
			buf = le.AppendUint32(buf, uint32(len(c.edges)))
			for _, e := range c.edges {
				buf = le.AppendUint32(buf, e.src)
				buf = le.AppendUint32(buf, e.dst)
				buf = append(buf, byte(e.kind))
			}
			buf = le.AppendUint32(buf, uint32(len(c.issues)))
			for _, is := range c.issues {
				buf = le.AppendUint64(buf, uint64(is.Ino))
				buf = bincodec.AppendStr16(buf, is.What)
			}
			buf = le.AppendUint64(buf, uint64(c.stats.InodesScanned))
			buf = le.AppendUint64(buf, uint64(c.stats.DirentsRead))
			buf = le.AppendUint64(buf, uint64(c.stats.EdgesEmitted))
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
// The FID index is rebuilt from the interner table; the blob is
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
		b.dirty[v] = struct{}{}
	}

	for _, s := range b.servers {
		nInodes := d.Count(uint64(d.U32()), deltaMinInode)
		s.sorted = make([]ldiskfs.Ino, 0, nInodes)
		var prevIno ldiskfs.Ino
		for i := 0; i < nInodes && d.Err() == nil; i++ {
			ino := ldiskfs.Ino(d.U64())
			if i > 0 && ino <= prevIno {
				d.Failf("server %q inodes not strictly ascending at %d", s.label, ino)
			}
			prevIno = ino
			c := &inoContrib{}

			nObjs := d.Count(uint64(d.U32()), deltaMinObj)
			for j := 0; j < nObjs && d.Err() == nil; j++ {
				c.objs = append(c.objs, contribObj{iid: iid("object"), typ: ldiskfs.FileType(d.U16())})
			}
			nEdges := d.Count(uint64(d.U32()), deltaMinEdge)
			for j := 0; j < nEdges && d.Err() == nil; j++ {
				c.edges = append(c.edges, contribEdge{src: iid("edge"), dst: iid("edge"), kind: graph.EdgeKind(d.U8())})
			}
			nIssues := d.Count(uint64(d.U32()), deltaMinIssue)
			for j := 0; j < nIssues && d.Err() == nil; j++ {
				c.issues = append(c.issues, scanner.Issue{Ino: ldiskfs.Ino(d.U64()), What: d.Str16()})
			}
			c.stats.InodesScanned = int64(d.U64())
			c.stats.DirentsRead = int64(d.U64())
			c.stats.EdgesEmitted = int64(d.U64())

			s.sorted = append(s.sorted, ino)
			s.contrib[ino] = c
		}
	}

	if err := d.Finish(); err != nil {
		return nil, err
	}
	return b, nil
}
