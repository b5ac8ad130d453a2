package wire

import (
	"slices"

	"faultyrank/internal/bincodec"
	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/scanner"
)

// appendChunkReference and decodeChunkReference are the field-by-field
// chunk codec that the record sections replaced, kept as the executable
// specification chunk.go is tested against (and nothing else should
// call): FuzzDecodeChunk requires the two to agree on which payloads
// they accept, on the typed view of the chunk they decode and on the
// bytes they encode.
func appendChunkReference(buf []byte, c *scanner.Chunk) []byte {
	size := 2 + len(c.ServerLabel) + 5 + 4 + c.Objects.Len()*scanner.ObjectSize + 4 + c.Edges.Len()*scanner.EdgeSize + 4 + 24
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
	buf = le.AppendUint32(buf, uint32(c.Objects.Len()))
	for j := range c.Objects.Len() {
		o := c.Objects.At(j)
		fb := o.FID.Bytes()
		buf = append(buf, fb[:]...)
		buf = le.AppendUint64(buf, uint64(o.Ino))
		buf = le.AppendUint16(buf, uint16(o.Type))
	}
	buf = le.AppendUint32(buf, uint32(c.Edges.Len()))
	for j := range c.Edges.Len() {
		e := c.Edges.At(j)
		db := e.Dst.Bytes()
		buf = le.AppendUint32(buf, e.Src)
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
	for range d.Count(uint64(d.U32()), scanner.ObjectSize) {
		c.Objects.Append(scanner.Object{FID: fid(d), Ino: ldiskfs.Ino(d.U64()), Type: ldiskfs.FileType(d.U16())})
	}
	for range d.Count(uint64(d.U32()), scanner.EdgeSize) {
		c.Edges.Append(scanner.Edge{Src: d.U32(), Dst: fid(d), Kind: graph.EdgeKind(d.U8())})
	}
	if n := d.Count(uint64(d.U32()), chunkMinIssue); n > 0 {
		c.Issues = make([]scanner.Issue, n)
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

// chunkView is a chunk with its record sections read into typed slices:
// what a chunk says, independent of how it holds it.
type chunkView struct {
	Label   string
	Seq     int
	Final   bool
	Objects []scanner.Object
	Edges   []scanner.Edge
	Issues  []scanner.Issue
	Stats   scanner.Stats
}

func viewOf(c *scanner.Chunk) chunkView {
	v := chunkView{Label: c.ServerLabel, Seq: c.Seq, Final: c.Final, Issues: c.Issues, Stats: c.Stats}
	for j := range c.Objects.Len() {
		o := c.Objects.At(j)
		v.Objects = append(v.Objects, o)
	}
	for j := range c.Edges.Len() {
		e := c.Edges.At(j)
		v.Edges = append(v.Edges, e)
	}
	return v
}

// objectsOf and edgesOf build record sections for test fixtures.
func objectsOf(objs ...scanner.Object) (s scanner.Objects) {
	s.Append(objs...)
	return s
}

func edgesOf(edges ...scanner.Edge) (s scanner.Edges) {
	s.Append(edges...)
	return s
}
