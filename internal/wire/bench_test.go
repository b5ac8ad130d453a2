package wire

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"

	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
	"faultyrank/internal/telemetry"
	"faultyrank/internal/workload"
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
// chunk frames per cold_check_tcp op) to a fixed number of allocations
// per chunk, whatever it holds: the chunk, its label, the three entry
// slices sized from their counts, and the one string every issue text
// is a substring of. (Five would need the label and the texts, which
// sit at opposite ends of the payload, to share a string.) A Reader
// method that stopped inlining or started escaping, or a slice that
// went back to growing by append, shows up here as one allocation per
// entry.
func TestDecodeChunkAllocs(t *testing.T) {
	c := fullChunk()
	enc := EncodeChunk(c)
	const ceiling = 6
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeChunk(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("DecodeChunk of a %d-entry chunk: %v allocations, ceiling %d", c.Entries(), allocs, ceiling)
	}
}

// TestDecodersDoNotAliasPayload: serveChunkStream reads every frame of
// a connection into one buffer, so nothing a chunk or trailer decoder
// returns may point into its input. Decode, overwrite the input, and
// the results must not move.
func TestDecodersDoNotAliasPayload(t *testing.T) {
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0xEE
		}
	}

	c := fullChunk()
	enc := EncodeChunk(c)
	got, err := DecodeChunk(enc)
	if err != nil {
		t.Fatal(err)
	}
	scribble(enc)
	if !reflect.DeepEqual(c, got) {
		t.Error("decoded chunk changed when its payload was overwritten")
	}

	reg := telemetry.NewRegistry()
	reg.Counter("scanner_inodes_scanned_total").Add(7)
	tel := &Telemetry{Server: "ost3", Snapshot: reg.Snapshot()}
	enc = EncodeTelemetry(tel)
	gotTel, err := DecodeTelemetry(enc)
	if err != nil {
		t.Fatal(err)
	}
	scribble(enc)
	if !reflect.DeepEqual(tel, gotTel) {
		t.Error("decoded telemetry trailer changed when its payload was overwritten")
	}

	j := telemetry.NewJournal(0)
	j.SetServer("ost3")
	j.Record("wire", "slow-frame", "seconds", "0.300")
	enc = telemetry.EncodeJournal([]telemetry.JournalSnapshot{j.Snapshot()})
	want, err := telemetry.DecodeJournal(append([]byte(nil), enc...))
	if err != nil {
		t.Fatal(err)
	}
	gotJ, err := telemetry.DecodeJournal(enc)
	if err != nil {
		t.Fatal(err)
	}
	scribble(enc)
	if !reflect.DeepEqual(want, gotJ) {
		t.Error("decoded journal trailer changed when its payload was overwritten")
	}
}

// TestReadFrameIntoReusesBuffer: a connection's reader hands every frame
// the previous frame's storage, and a frame that fits is read in place.
func TestReadFrameIntoReusesBuffer(t *testing.T) {
	var stream bytes.Buffer
	big, small := bytes.Repeat([]byte{1}, 5000), bytes.Repeat([]byte{2}, 40)
	for _, p := range [][]byte{big, small, nil, big} {
		if err := WriteFrame(&stream, MsgChunk, p); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	for i, want := range [][]byte{big, small, nil, big} {
		typ, payload, err := readFrameInto(&stream, buf)
		if err != nil || typ != MsgChunk || !bytes.Equal(payload, want) {
			t.Fatalf("frame %d: type %d, %d bytes, %v", i, typ, len(payload), err)
		}
		if i > 0 && (len(payload) > 0 && &payload[0] != &buf[:1][0]) {
			t.Fatalf("frame %d (%d bytes) was not read into the %d-byte buffer it was given", i, len(payload), cap(buf))
		}
		buf = payload
	}
}

// TestChunkStreamSteadyStateAllocs: a stream encodes every chunk into
// its one frame buffer and ships it in one Write, so once the buffer
// has reached a chunk's size, emitting another like it allocates
// nothing.
func TestChunkStreamSteadyStateAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		if conn, err := ln.Accept(); err == nil {
			_, _ = io.Copy(io.Discard, conn)
			conn.Close()
		}
	}()
	cs, err := DialChunkStreamContext(context.Background(), ln.Addr().String(), RetryPolicy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := fullChunk()
	if err := cs.Emit(c); err != nil { // sizes the frame buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := cs.Emit(c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Emit of a second equal-size chunk: %v allocations, want 0", allocs)
	}
	frames, sent := cs.Sent()
	if want := int64(len(EncodeChunk(c))); frames != 22 || sent != 22*want {
		t.Errorf("sent %d frames, %d bytes; want 22 frames of %d", frames, sent, want)
	}
	cs.Close()
	<-drained
}

var (
	benchChunk *scanner.Chunk
	benchBytes []byte
)

// agedChunk is the first chunk of the MDT stream of the cold_check_tcp
// cluster (8 OSTs, 24 000 MDT inodes, aged with 15 % churn) at the
// scanner's default chunk size: real FIDs and edge kinds, no issues.
var agedChunk = sync.OnceValues(func() (*scanner.Chunk, error) {
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 8, StripeSize: 64 << 10, StripeCount: -1,
		Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		return nil, err
	}
	if _, err := workload.Age(c, workload.AgeSpec{TargetMDTInodes: 24000, ChurnFraction: 0.15, Seed: 1}); err != nil {
		return nil, err
	}
	var first *scanner.Chunk
	err = scanner.ScanImageToSink(c.MDT.Img, 0, 0, sinkFunc(func(ch *scanner.Chunk) error {
		if first == nil {
			first = ch
		}
		return nil
	}))
	return first, err
})

type sinkFunc func(*scanner.Chunk) error

func (f sinkFunc) Emit(c *scanner.Chunk) error { return f(c) }

// benchChunks are the chunks the codec benchmarks time: fullChunk's
// synthetic mix, with issues, and one chunk of an aged cluster.
func benchChunks(b *testing.B) []struct {
	name string
	c    *scanner.Chunk
} {
	aged, err := agedChunk()
	if err != nil {
		b.Fatal(err)
	}
	return []struct {
		name string
		c    *scanner.Chunk
	}{{"synthetic", fullChunk()}, {"aged", aged}}
}

func BenchmarkDecodeChunk(b *testing.B) {
	for _, in := range benchChunks(b) {
		b.Run(in.name, func(b *testing.B) {
			enc := EncodeChunk(in.c)
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			for b.Loop() {
				c, err := DecodeChunk(enc)
				if err != nil {
					b.Fatal(err)
				}
				benchChunk = c
			}
		})
	}
}

func BenchmarkEncodeChunk(b *testing.B) {
	for _, in := range benchChunks(b) {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(EncodeChunk(in.c))))
			b.ReportAllocs()
			for b.Loop() {
				benchBytes = EncodeChunk(in.c)
			}
		})
	}
}
