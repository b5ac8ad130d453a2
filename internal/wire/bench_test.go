package wire

import (
	"fmt"
	"testing"

	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
)

// fullChunk is a chunk at the scanner's default size (4096 entries) in
// roughly the MDT mix: one object and three edges per inode, and an
// issue every 64 inodes.
func fullChunk() *scanner.Chunk {
	c := &scanner.Chunk{ServerLabel: "mdt0", Seq: 3}
	for i := 0; c.Entries() < 4096; i++ {
		self := lustre.FID{Seq: lustre.MDTSeqBase, Oid: uint32(i + 2)}
		c.Objects = append(c.Objects, scanner.Object{FID: self, Ino: ldiskfs.Ino(i + 12), Type: ldiskfs.TypeFile})
		for k := 0; k < 3 && c.Entries() < 4096; k++ {
			dst := lustre.FID{Seq: lustre.OSTSeqBase + uint64(k), Oid: uint32(i)}
			c.Edges = append(c.Edges, scanner.FIDEdge{Src: self, Dst: dst, Kind: graph.KindLOVEA})
		}
		if i%64 == 0 && c.Entries() < 4096 {
			c.Issues = append(c.Issues, scanner.Issue{Ino: ldiskfs.Ino(i + 12), What: fmt.Sprintf("lov: stripe %d unreadable", i)})
		}
	}
	c.Stats = scanner.Stats{InodesScanned: int64(len(c.Objects)), EdgesEmitted: int64(len(c.Edges))}
	return c
}

// TestDecodeChunkAllocs holds the hot path of a TCP check (≈10 MiB of
// chunk frames per cold_check_tcp op) to its allocation count: the
// label, the issue texts, and the append growth of the three entry
// slices. The ceiling is what the decoder cost before it moved onto
// bincodec; a Reader method that stopped inlining or started escaping
// shows up here as one allocation per entry.
func TestDecodeChunkAllocs(t *testing.T) {
	c := fullChunk()
	enc := EncodeChunk(c)
	const ceiling = 49
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeChunk(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("DecodeChunk of a %d-entry chunk: %v allocations, ceiling %d", c.Entries(), allocs, ceiling)
	}
}

var (
	benchChunk *scanner.Chunk
	benchBytes []byte
)

func BenchmarkDecodeChunk(b *testing.B) {
	enc := EncodeChunk(fullChunk())
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for b.Loop() {
		c, err := DecodeChunk(enc)
		if err != nil {
			b.Fatal(err)
		}
		benchChunk = c
	}
}

func BenchmarkEncodeChunk(b *testing.B) {
	c := fullChunk()
	b.SetBytes(int64(len(EncodeChunk(c))))
	b.ReportAllocs()
	for b.Loop() {
		benchBytes = EncodeChunk(c)
	}
}
