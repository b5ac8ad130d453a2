package agg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

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

var deltaMagic = [4]byte{'F', 'R', 'D', 'B'}

// ErrDeltaSnapshot is wrapped by every decode failure caused by a
// malformed blob (truncation, corruption, non-canonical form).
var ErrDeltaSnapshot = errors.New("malformed delta snapshot")

// ErrDeltaSnapshotVersion is wrapped when the blob's magic or version
// does not match this build — the mixed-version signal a deployment
// handles by falling back to a cold rescan.
var ErrDeltaSnapshotVersion = errors.New("unsupported delta snapshot version")

func errDelta(format string, args ...any) error {
	return fmt.Errorf("agg: %s: %w", fmt.Sprintf(format, args...), ErrDeltaSnapshot)
}

// EncodeBinary renders the builder's full state as a versioned blob.
// Equal builder states always produce identical bytes: membership
// buffers are folded first and every collection encodes in canonical
// order.
func (b *DeltaBuilder) EncodeBinary() []byte {
	return b.AppendBinary(nil)
}

// AppendBinary appends EncodeBinary's blob to buf.
func (b *DeltaBuilder) AppendBinary(buf []byte) []byte {
	buf = append(buf, deltaMagic[:]...)
	buf = append(buf, DeltaCodecVersion)

	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(b.labels)))
	for _, l := range b.labels {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(l)))
		buf = append(buf, l...)
	}

	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.iids.fids)))
	for _, f := range b.iids.fids {
		buf = binary.LittleEndian.AppendUint64(buf, f.Seq)
		buf = binary.LittleEndian.AppendUint32(buf, f.Oid)
		buf = binary.LittleEndian.AppendUint32(buf, f.Ver)
	}

	dirty := make([]uint32, 0, len(b.dirty))
	for iid := range b.dirty {
		dirty = append(dirty, iid)
	}
	slices.Sort(dirty)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dirty)))
	for _, iid := range dirty {
		buf = binary.LittleEndian.AppendUint32(buf, iid)
	}

	for _, s := range b.servers {
		s.fold()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.sorted)))
		for _, ino := range s.sorted {
			c := s.contrib[ino]
			buf = binary.LittleEndian.AppendUint64(buf, uint64(ino))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.objs)))
			for _, o := range c.objs {
				buf = binary.LittleEndian.AppendUint32(buf, o.iid)
				buf = binary.LittleEndian.AppendUint16(buf, uint16(o.typ))
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.edges)))
			for _, e := range c.edges {
				buf = binary.LittleEndian.AppendUint32(buf, e.src)
				buf = binary.LittleEndian.AppendUint32(buf, e.dst)
				buf = append(buf, byte(e.kind))
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.issues)))
			for _, is := range c.issues {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(is.Ino))
				buf = binary.LittleEndian.AppendUint16(buf, uint16(len(is.What)))
				buf = append(buf, is.What...)
			}
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.stats.InodesScanned))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.stats.DirentsRead))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.stats.EdgesEmitted))
		}
	}
	return buf
}

// ddec is the bounded decoder for delta blobs.
type ddec struct {
	b   []byte
	off int
	err error
}

func (d *ddec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || d.off+n > len(d.b) {
		d.err = errDelta("truncated at offset %d", d.off)
		return false
	}
	return true
}

func (d *ddec) u8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *ddec) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *ddec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *ddec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *ddec) str() string {
	n := int(d.u16())
	if !d.need(n) {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *ddec) remaining() int {
	if d.err != nil {
		return 0
	}
	return len(d.b) - d.off
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
	d := &ddec{b: blob}
	if !d.need(5) {
		return nil, d.err
	}
	if [4]byte(blob[:4]) != deltaMagic {
		return nil, fmt.Errorf("agg: bad delta snapshot magic %q: %w", blob[:4], ErrDeltaSnapshotVersion)
	}
	if v := blob[4]; v != DeltaCodecVersion {
		return nil, fmt.Errorf("agg: delta snapshot version %d (have %d): %w", v, DeltaCodecVersion, ErrDeltaSnapshotVersion)
	}
	d.off = 5

	nLabels := int(d.u16())
	if d.err == nil && nLabels*2 > d.remaining() {
		return nil, errDelta("implausible server count %d", nLabels)
	}
	labels := make([]string, 0, nLabels)
	for i := 0; i < nLabels && d.err == nil; i++ {
		labels = append(labels, d.str())
	}
	if d.err != nil {
		return nil, d.err
	}
	b := NewDeltaBuilder(labels)

	nFIDs := d.u32()
	if d.err == nil && uint64(nFIDs)*deltaMinFID > uint64(d.remaining()) {
		return nil, errDelta("implausible FID count %d", nFIDs)
	}
	b.iids = newFIDTable(int(nFIDs))
	for i := uint32(0); i < nFIDs && d.err == nil; i++ {
		f := lustre.FID{Seq: d.u64(), Oid: d.u32(), Ver: d.u32()}
		if d.err != nil {
			break
		}
		if _, added := b.iids.intern(f); !added {
			return nil, errDelta("duplicate FID %v in interner table", f)
		}
	}

	nDirty := d.u32()
	if d.err == nil && uint64(nDirty)*4 > uint64(d.remaining()) {
		return nil, errDelta("implausible dirty count %d", nDirty)
	}
	prevDirty := uint32(0)
	for i := uint32(0); i < nDirty && d.err == nil; i++ {
		iid := d.u32()
		if d.err != nil {
			break
		}
		if iid >= nFIDs {
			return nil, errDelta("dirty IID %d out of range (%d FIDs)", iid, nFIDs)
		}
		if i > 0 && iid <= prevDirty {
			return nil, errDelta("dirty set not strictly ascending at IID %d", iid)
		}
		prevDirty = iid
		b.dirty[iid] = struct{}{}
	}

	for si := 0; si < nLabels && d.err == nil; si++ {
		s := b.servers[si]
		nInodes := d.u32()
		if d.err == nil && uint64(nInodes)*deltaMinInode > uint64(d.remaining()) {
			return nil, errDelta("implausible inode count %d for server %q", nInodes, s.label)
		}
		s.sorted = make([]ldiskfs.Ino, 0, nInodes)
		var prevIno ldiskfs.Ino
		for i := uint32(0); i < nInodes && d.err == nil; i++ {
			ino := ldiskfs.Ino(d.u64())
			if d.err != nil {
				break
			}
			if i > 0 && ino <= prevIno {
				return nil, errDelta("server %q inodes not strictly ascending at %d", s.label, ino)
			}
			prevIno = ino
			c := &inoContrib{}

			nObjs := d.u32()
			if d.err == nil && uint64(nObjs)*deltaMinObj > uint64(d.remaining()) {
				return nil, errDelta("implausible object count %d for ino %d", nObjs, ino)
			}
			for j := uint32(0); j < nObjs && d.err == nil; j++ {
				iid := d.u32()
				typ := ldiskfs.FileType(d.u16())
				if d.err != nil {
					break
				}
				if iid >= nFIDs {
					return nil, errDelta("object IID %d out of range (%d FIDs)", iid, nFIDs)
				}
				c.objs = append(c.objs, contribObj{iid: iid, typ: typ})
			}

			nEdges := d.u32()
			if d.err == nil && uint64(nEdges)*deltaMinEdge > uint64(d.remaining()) {
				return nil, errDelta("implausible edge count %d for ino %d", nEdges, ino)
			}
			for j := uint32(0); j < nEdges && d.err == nil; j++ {
				src := d.u32()
				dst := d.u32()
				kind := graph.EdgeKind(d.u8())
				if d.err != nil {
					break
				}
				if src >= nFIDs || dst >= nFIDs {
					return nil, errDelta("edge IID %d->%d out of range (%d FIDs)", src, dst, nFIDs)
				}
				c.edges = append(c.edges, contribEdge{src: src, dst: dst, kind: kind})
			}

			nIssues := d.u32()
			if d.err == nil && uint64(nIssues)*deltaMinIssue > uint64(d.remaining()) {
				return nil, errDelta("implausible issue count %d for ino %d", nIssues, ino)
			}
			for j := uint32(0); j < nIssues && d.err == nil; j++ {
				isIno := ldiskfs.Ino(d.u64())
				what := d.str()
				if d.err != nil {
					break
				}
				c.issues = append(c.issues, scanner.Issue{Ino: isIno, What: what})
			}

			c.stats.InodesScanned = int64(d.u64())
			c.stats.DirentsRead = int64(d.u64())
			c.stats.EdgesEmitted = int64(d.u64())
			if d.err != nil {
				break
			}
			s.sorted = append(s.sorted, ino)
			s.contrib[ino] = c
		}
	}

	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(blob) {
		return nil, errDelta("%d trailing bytes", len(blob)-d.off)
	}
	return b, nil
}
