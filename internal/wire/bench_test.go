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
		c.Objects.Append(scanner.Object{FID: self, Ino: ldiskfs.Ino(i + 12), Type: ldiskfs.TypeFile})
		for k := 0; k < 3 && c.Entries() < 4096; k++ {
			dst := lustre.FID{Seq: lustre.OSTSeqBase + uint64(k), Oid: uint32(i)}
			c.Edges.Append(scanner.Edge{Src: uint32(c.Objects.Len() - 1), Dst: dst, Kind: graph.KindLOVEA})
		}
		if i%64 == 0 && c.Entries() < 4096 {
			c.Issues = append(c.Issues, scanner.Issue{Ino: ldiskfs.Ino(i + 12), What: fmt.Sprintf("lov: stripe %d unreadable", i)})
		}
	}
	c.Stats = scanner.Stats{InodesScanned: int64(c.Objects.Len()), EdgesEmitted: int64(c.Edges.Len())}
	return c
}

// TestDecodeChunkAllocs holds the hot path of a TCP check (≈10 MiB of
// chunk frames per cold_check_tcp op) to a fixed number of allocations
// per chunk, whatever it holds: the chunk, its label, the issue slice,
// and the one string every issue text is a substring of. The record
// sections are slices of the payload, so a chunk of 16 records costs
// what a chunk of 4 096 does; a section that went back to being
// decoded into memory of its own shows up here.
func TestDecodeChunkAllocs(t *testing.T) {
	full := fullChunk()
	few := *full
	few.Objects = scanner.ObjectRecords(full.Objects.Bytes()[:4*scanner.ObjectSize])
	few.Edges = scanner.EdgeRecords(full.Edges.Bytes()[:12*scanner.EdgeSize])
	const want = 4
	for _, c := range []*scanner.Chunk{full, &few} {
		enc := EncodeChunk(c)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := DecodeChunk(enc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != want {
			t.Errorf("DecodeChunk of a %d-entry chunk: %v allocations, want %d", c.Entries(), allocs, want)
		}
	}
}

// TestDecodersDoNotAliasPayload: a decoded chunk's record sections are
// slices of its payload — the collector reads every chunk frame into a
// buffer of its own for that — while its label and issues, and
// everything the FRJR journal decoder returns, are copies. Decode,
// overwrite the input: the sections must read the overwritten bytes,
// and nothing else may move.
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
	for _, sec := range [][]byte{got.Objects.Bytes(), got.Edges.Bytes()} {
		if len(sec) == 0 || bytes.Count(sec, []byte{0xEE}) != len(sec) {
			t.Error("a decoded record section does not alias its payload")
		}
	}
	if got.ServerLabel != c.ServerLabel || !reflect.DeepEqual(got.Issues, c.Issues) || got.Stats != c.Stats {
		t.Error("decoded label, issues or stats changed when their payload was overwritten")
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
		t.Error("decoded journal changed when its payload was overwritten")
	}
}

// TestChunkStreamSteadyStateAllocs: a stream writes each frame in one
// gathered write straight from the chunk's record sections and keeps
// only the few bytes around them, so once that scratch has reached a
// chunk's size, emitting another like it allocates nothing.
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
	if err := cs.Emit(c); err != nil { // sizes the scratch
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

// agedStreams are the chunk streams of the cold_check_tcp cluster (8
// OSTs, 24 000 MDT inodes, aged with 15 % churn) at the scanner's
// default chunk size, one per server: real FIDs and edge kinds, and the
// frame count and bytes of one check.
var agedStreams = sync.OnceValues(func() ([][]*scanner.Chunk, error) {
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
	var streams [][]*scanner.Chunk
	for _, img := range c.Images() {
		var chunks []*scanner.Chunk
		err := scanner.ScanImageToSink(img, 0, 0, sinkFunc(func(ch *scanner.Chunk) error {
			chunks = append(chunks, ch)
			return nil
		}))
		if err != nil {
			return nil, err
		}
		streams = append(streams, chunks)
	}
	return streams, nil
})

type sinkFunc func(*scanner.Chunk) error

func (f sinkFunc) Emit(c *scanner.Chunk) error { return f(c) }

// benchChunks are the chunks the codec benchmarks time: fullChunk's
// synthetic mix, with issues, and one chunk of an aged cluster.
func benchChunks(b *testing.B) []struct {
	name string
	c    *scanner.Chunk
} {
	streams, err := agedStreams()
	if err != nil {
		b.Fatal(err)
	}
	aged := streams[0][0] // the first chunk of the MDT stream, no issues
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

// BenchmarkCollectChunks times the receive path of one check over
// loopback TCP: the aged cluster's nine streams, shipped concurrently
// into one collector that reads, decodes and delivers every frame to a
// sink retaining the chunks, as agg.Builder does.
func BenchmarkCollectChunks(b *testing.B) {
	streams, err := agedStreams()
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for _, chunks := range streams {
		for _, c := range chunks {
			total += int64(len(EncodeChunk(c)))
		}
	}
	b.SetBytes(total)
	b.ReportAllocs()
	for b.Loop() {
		col, addr, err := NewCollector()
		if err != nil {
			b.Fatal(err)
		}
		errs := make(chan error, len(streams))
		for _, chunks := range streams {
			go func() {
				cs, err := DialChunkStreamContext(context.Background(), addr, RetryPolicy{}, 0)
				if err != nil {
					errs <- err
					return
				}
				defer cs.Close()
				for _, c := range chunks {
					if err := cs.Emit(c); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		var sink retainSink
		res, err := col.CollectChunksContext(context.Background(), len(streams), false, sink.Emit)
		for range streams {
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
		col.Close()
		if err != nil || res.Bytes != total {
			b.Fatalf("collected %d bytes of %d: %v", res.Bytes, total, err)
		}
	}
}
