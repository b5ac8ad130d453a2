package graph

import (
	"bytes"
	"encoding/binary"
	"errors"

	"faultyrank/internal/bincodec"
)

// This file is the SubGraph's wire form: a deterministic, versioned
// binary codec (FRSG) with which the coordinator ships a partition's CSR
// shard to its rank worker (wire.ServeRankWorker) instead of sharing
// memory with it. It follows the repo's codec discipline (telemetry,
// FRDB, FRJR):
//
//   - Versioned: the blob starts with "FRSG" | version; a layout change
//     bumps SubGraphCodecVersion and old blobs fail loudly.
//   - Canonical: Local and Ghosts encode strictly ascending and disjoint,
//     offsets start at 0 and never decrease, paired flags admit only 0/1,
//     and SendTo schedules ascend; decode REJECTS any other form, so a
//     blob either fails DecodeSubGraph or re-encodes byte-identically
//     (FuzzDecodeSubGraph leans on this).
//   - Bounded: counts from untrusted headers are sanity-checked against
//     the remaining payload before any allocation sized from them, and
//     every column index is range-checked against the local column space.

// SubGraphCodecVersion identifies the binary layout of FRSG blobs. Bump
// on any incompatible change.
const SubGraphCodecVersion = 1

const subGraphMagic = "FRSG"

// ErrSubGraphCodec is wrapped by every decode failure caused by a
// malformed blob (truncation, corruption, non-canonical form).
var ErrSubGraphCodec = errors.New("malformed subgraph shard")

// ErrSubGraphVersion is wrapped when the blob's magic or version does
// not match this build — the mixed-version signal a worker handles by
// refusing the shard instead of computing garbage on it.
var ErrSubGraphVersion = errors.New("unsupported subgraph shard version")

var subGraphFormat = bincodec.Format{Name: "graph", Malformed: ErrSubGraphCodec, Version: ErrSubGraphVersion}

// EncodeSubGraph renders one partition's shard as a versioned FRSG blob.
// Equal shards always produce identical bytes (every array encodes in
// its construction order, which PartitionPlan makes canonical).
func EncodeSubGraph(s *SubGraph) []byte {
	le := binary.LittleEndian
	buf := append([]byte(nil), subGraphMagic...)
	buf = append(buf, SubGraphCodecVersion)
	buf = le.AppendUint32(buf, uint32(s.Part))
	buf = le.AppendUint16(buf, uint16(len(s.SendTo)))
	buf = le.AppendUint64(buf, uint64(s.CutEdges))

	buf = le.AppendUint32(buf, uint32(len(s.Local)))
	for _, g := range s.Local {
		buf = le.AppendUint32(buf, g)
	}
	buf = le.AppendUint32(buf, uint32(len(s.Ghosts)))
	for _, g := range s.Ghosts {
		buf = le.AppendUint32(buf, g)
	}

	for _, off := range s.RevOff {
		buf = le.AppendUint64(buf, uint64(off))
	}
	for _, c := range s.RevCol {
		buf = le.AppendUint32(buf, c)
	}
	for _, off := range s.FwdOff {
		buf = le.AppendUint64(buf, uint64(off))
	}
	for _, c := range s.FwdCol {
		buf = le.AppendUint32(buf, c)
	}
	buf = append(buf, s.FwdPaired...)

	for _, v := range s.OutDeg {
		buf = le.AppendUint32(buf, uint32(v))
	}
	for _, v := range s.PairedIn {
		buf = le.AppendUint32(buf, uint32(v))
	}
	for _, v := range s.UnpairedIn {
		buf = le.AppendUint32(buf, uint32(v))
	}

	for _, sched := range s.SendTo {
		buf = le.AppendUint32(buf, uint32(len(sched)))
		for _, l := range sched {
			buf = le.AppendUint32(buf, l)
		}
	}
	return buf
}

// ascending32 decodes a strictly-ascending vector of n u32s (n already
// bounded by Count). Empty decodes nil — the canonical form.
func ascending32(d *bincodec.Reader, n int, what string) []uint32 {
	if n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = d.U32()
		if i > 0 && out[i] <= out[i-1] {
			d.Failf("%s not strictly ascending at entry %d", what, i)
		}
	}
	return out
}

// offsets decodes an nRows+1 offset array: starts at 0, never
// decreases, and every entry is bounded so the column array the last
// one sizes can be checked against the payload.
func offsets(d *bincodec.Reader, nRows int, what string) []int64 {
	out := make([]int64, d.Count(uint64(nRows)+1, 8))
	for i := range out {
		v := d.U64()
		if i == 0 && v != 0 {
			d.Failf("%s offsets start at %d, want 0", what, v)
		}
		if v > uint64(1)<<62 || (i > 0 && int64(v) < out[i-1]) {
			d.Failf("%s offsets not monotone at row %d", what, i)
		}
		out[i] = int64(v)
	}
	return out
}

// columns decodes the edge-column array an offset array sizes (one
// entry per edge of its last offset), each entry < nCols.
func columns(d *bincodec.Reader, off []int64, nCols int, what string) []uint32 {
	if d.Err() != nil {
		return nil
	}
	n := d.Count(uint64(off[len(off)-1]), 4)
	if n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = d.U32()
		if int(out[i]) >= nCols {
			d.Failf("%s column %d out of range (%d columns)", what, out[i], nCols)
		}
	}
	return out
}

// counts32 decodes an n-entry int32 metadata vector (n already bounded
// by Count), rejecting negative values: degrees and in-edge counts are
// tallies.
func counts32(d *bincodec.Reader, n int, what string) []int32 {
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(d.U32())
		if out[i] < 0 {
			d.Failf("negative %s %d at column %d", what, out[i], i)
		}
	}
	return out
}

// DecodeSubGraph reconstructs a shard from an FRSG blob. The blob is
// rejected (never panicked on) when truncated, when counts are
// implausible for the remaining payload, when any column or schedule
// index is out of range, when any canonical order is violated, or when
// the version does not match.
func DecodeSubGraph(blob []byte) (*SubGraph, error) {
	d := bincodec.NewReader(&subGraphFormat, blob)
	d.Header(subGraphMagic, SubGraphCodecVersion)

	s := &SubGraph{Part: int(d.U32())}
	k := int(d.U16())
	s.CutEdges = int64(d.U64())
	if s.CutEdges < 0 {
		d.Failf("negative cut-edge count %d", s.CutEdges)
	}
	if s.Part >= max(k, 1) {
		d.Failf("partition %d out of range k=%d", s.Part, k)
	}

	nLocal := d.Count(uint64(d.U32()), 4)
	s.Local = ascending32(d, nLocal, "locals")
	nGhost := d.Count(uint64(d.U32()), 4)
	s.Ghosts = ascending32(d, nGhost, "ghosts")
	// Both lists ascend, so a single merge walk proves disjointness —
	// a ghost aliasing a local would make two columns one vertex.
	for i, j := 0, 0; i < nLocal && j < nGhost && d.Err() == nil; {
		switch {
		case s.Local[i] < s.Ghosts[j]:
			i++
		case s.Local[i] > s.Ghosts[j]:
			j++
		default:
			d.Failf("vertex %d is both local and ghost", s.Local[i])
		}
	}
	nCols := nLocal + nGhost

	s.RevOff = offsets(d, nLocal, "rev")
	s.RevCol = columns(d, s.RevOff, nCols, "rev")
	s.FwdOff = offsets(d, nLocal, "fwd")
	s.FwdCol = columns(d, s.FwdOff, nCols, "fwd")
	if paired := d.Bytes(len(s.FwdCol)); len(paired) > 0 {
		s.FwdPaired = bytes.Clone(paired)
		for i, p := range s.FwdPaired {
			if p > 1 {
				d.Failf("paired flag %d at edge %d", p, i)
			}
		}
	}

	// Three int32 vectors of nCols entries follow.
	nMeta := d.Count(uint64(nCols), 12)
	s.OutDeg = counts32(d, nMeta, "out-degree")
	s.PairedIn = counts32(d, nMeta, "paired-in count")
	s.UnpairedIn = counts32(d, nMeta, "unpaired-in count")

	// Each send schedule needs at least its 4-byte count.
	if k = d.Count(uint64(k), 4); k > 0 {
		s.SendTo = make([][]uint32, k)
		for q := range s.SendTo {
			sched := ascending32(d, d.Count(uint64(d.U32()), 4), "send schedule")
			for _, l := range sched {
				if int(l) >= nLocal {
					d.Failf("send schedule entry %d out of range (%d locals)", l, nLocal)
				}
			}
			s.SendTo[q] = sched
		}
	}

	if err := d.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}
