package wire

import (
	"slices"

	"faultyrank/internal/bincodec"
	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/scanner"
)

// appendChunkReference and decodeChunkReference are the field-by-field
// chunk codec the stride codec in chunk.go replaced, kept as the
// executable specification it is tested against (and nothing else
// should call): FuzzDecodeChunk requires the two to agree on which
// payloads they accept, on the chunk they decode and on the bytes they
// encode.
func appendChunkReference(buf []byte, c *scanner.Chunk) []byte {
	size := 2 + len(c.ServerLabel) + 5 + 4 + len(c.Objects)*chunkObject + 4 + len(c.Edges)*chunkEdge + 4 + 24
	for _, is := range c.Issues {
		size += chunkMinIssue + len(is.What)
	}
	buf = slices.Grow(buf, size)
	buf = bincodec.AppendStr16(buf, c.ServerLabel)
	buf = le.AppendUint32(buf, uint32(c.Seq))
	var flags byte
	if c.Final {
		flags |= chunkFlagFinal
	}
	buf = append(buf, flags)
	buf = le.AppendUint32(buf, uint32(len(c.Objects)))
	for _, o := range c.Objects {
		fb := o.FID.Bytes()
		buf = append(buf, fb[:]...)
		buf = le.AppendUint64(buf, uint64(o.Ino))
		buf = le.AppendUint16(buf, uint16(o.Type))
	}
	buf = le.AppendUint32(buf, uint32(len(c.Edges)))
	for _, e := range c.Edges {
		sb, db := e.Src.Bytes(), e.Dst.Bytes()
		buf = append(buf, sb[:]...)
		buf = append(buf, db[:]...)
		buf = append(buf, byte(e.Kind))
	}
	buf = le.AppendUint32(buf, uint32(len(c.Issues)))
	for _, is := range c.Issues {
		buf = le.AppendUint64(buf, uint64(is.Ino))
		buf = bincodec.AppendStr16(buf, is.What)
	}
	buf = le.AppendUint64(buf, uint64(c.Stats.InodesScanned))
	buf = le.AppendUint64(buf, uint64(c.Stats.DirentsRead))
	buf = le.AppendUint64(buf, uint64(c.Stats.EdgesEmitted))
	return buf
}

func decodeChunkReference(b []byte) (*scanner.Chunk, error) {
	d := bincodec.NewReader(&chunkFormat, b)
	c := &scanner.Chunk{}
	c.ServerLabel = d.Str16()
	c.Seq = int(d.U32())
	flags := d.U8()
	if flags&^byte(chunkFlagFinal) != 0 {
		d.Failf("unknown flags %#x", flags)
	}
	c.Final = flags&chunkFlagFinal != 0
	c.Objects = sized[scanner.Object](d.Count(uint64(d.U32()), chunkObject))
	for i := range c.Objects {
		o := &c.Objects[i]
		o.FID = fid(d)
		o.Ino = ldiskfs.Ino(d.U64())
		o.Type = ldiskfs.FileType(d.U16())
	}
	c.Edges = sized[scanner.FIDEdge](d.Count(uint64(d.U32()), chunkEdge))
	for i := range c.Edges {
		e := &c.Edges[i]
		e.Src = fid(d)
		e.Dst = fid(d)
		e.Kind = graph.EdgeKind(d.U8())
	}
	c.Issues = sized[scanner.Issue](d.Count(uint64(d.U32()), chunkMinIssue))
	if len(c.Issues) > 0 {
		start := len(b) - d.Remaining()
		texts := string(b[start:])
		for i := range c.Issues {
			c.Issues[i].Ino = ldiskfs.Ino(d.U64())
			n := int(d.U16())
			at := len(b) - d.Remaining() - start
			if d.Bytes(n) != nil {
				c.Issues[i].What = texts[at : at+n]
			}
		}
	}
	c.Stats.InodesScanned = int64(d.U64())
	c.Stats.DirentsRead = int64(d.U64())
	c.Stats.EdgesEmitted = int64(d.U64())
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return c, nil
}
