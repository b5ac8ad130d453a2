package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := WriteFrame(&buf, MsgChunk, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, MsgAck, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil || typ != MsgChunk || !bytes.Equal(got, payload) {
		t.Fatalf("frame 1: %d %q %v", typ, got, err)
	}
	typ, got, err = ReadFrame(&buf)
	if err != nil || typ != MsgAck || len(got) != 0 {
		t.Fatalf("frame 2: %d %q %v", typ, got, err)
	}
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Error("read from empty buffer succeeded")
	}
}

// TestMessageTypesPinned pins every frame type's value on the wire.
// Types 1, 10, 12 and 13 are retired and reserved; no type may move
// into them, so msgTypes, one past the last, stays 14 until a new type
// is added.
func TestMessageTypesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		got  byte
		want byte
	}{
		{"MsgAck", MsgAck, 2},
		{"MsgStatFID", MsgStatFID, 3},
		{"MsgFIDInfo", MsgFIDInfo, 4},
		{"MsgError", MsgError, 5},
		{"MsgBye", MsgBye, 6},
		{"MsgStatBatch", MsgStatBatch, 7},
		{"MsgFIDInfoBatch", MsgFIDInfoBatch, 8},
		{"MsgChunk", MsgChunk, 9},
		{"MsgRankDelta", MsgRankDelta, 11},
		{"msgTypes", msgTypes, 14},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d on the wire, want %d", c.name, c.got, c.want)
		}
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, MsgChunk, []byte("0123456789"))
	short := buf.Bytes()[:8]
	if _, _, err := ReadFrame(bytes.NewReader(short)); err == nil {
		t.Error("truncated frame accepted")
	}
}

// TestReadFrameLyingHeader: a frame header claiming almost MaxFrame on
// a stream carrying a handful of bytes must fail on the first bounded
// batch — quickly and without the multi-GiB up-front allocation the old
// code performed straight from the untrusted length field.
func TestReadFrameLyingHeader(t *testing.T) {
	hostile := []byte{MsgChunk, 0xff, 0xff, 0xff, 0x7e} // length ≈ 2 GiB − ε
	hostile = append(hostile, "short"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := ReadFrame(bytes.NewReader(hostile)); err == nil {
		t.Fatal("lying header accepted")
	}
	runtime.ReadMemStats(&after)
	// One bounded batch plus bookkeeping — far from the 2 GiB the header
	// promises (TotalAlloc is cumulative, so the delta counts every byte
	// allocated during the read).
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("lying header allocated %d bytes", grew)
	}

	// Exactly MaxFrame is still rejected outright.
	overflow := []byte{MsgChunk, 0x00, 0x00, 0x00, 0x80}
	if _, _, err := ReadFrame(bytes.NewReader(overflow)); err != ErrFrameTooLarge {
		t.Errorf("MaxFrame header: %v", err)
	}

	// A frame larger than one batch still round-trips.
	big := bytes.Repeat([]byte{0xAB}, 3<<20)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgChunk, big); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil || typ != MsgChunk || !bytes.Equal(got, big) {
		t.Fatalf("multi-batch frame: type %d, %d bytes, %v", typ, len(got), err)
	}
}

func TestErrorFrames(t *testing.T) {
	var buf bytes.Buffer
	WriteError(&buf, bytes.ErrTooLarge)
	typ, payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if e := AsError(typ, payload); e == nil {
		t.Error("AsError returned nil for MsgError")
	}
	if e := AsError(MsgAck, nil); e != nil {
		t.Errorf("AsError on ack: %v", e)
	}
}

func randomPartial(r *rand.Rand) *scanner.Partial {
	p := &scanner.Partial{ServerLabel: "ost7"}
	for i := 0; i < r.Intn(20); i++ {
		p.Objects.Append(scanner.Object{
			FID:  lustre.FID{Seq: r.Uint64(), Oid: r.Uint32(), Ver: r.Uint32()},
			Ino:  ldiskfs.Ino(r.Uint64()),
			Type: ldiskfs.FileType(r.Intn(4)),
		})
	}
	for i := 0; i < r.Intn(30); i++ {
		p.Edges.Append(scanner.FIDEdge{
			Src:  lustre.FID{Seq: r.Uint64(), Oid: r.Uint32()},
			Dst:  lustre.FID{Seq: r.Uint64(), Oid: r.Uint32()},
			Kind: graph.EdgeKind(r.Intn(5)),
		})
	}
	for i := 0; i < r.Intn(4); i++ {
		p.Issues = append(p.Issues, scanner.Issue{
			Ino: ldiskfs.Ino(r.Uint64()), What: "corrupt something",
		})
	}
	p.Stats = scanner.Stats{
		InodesScanned: r.Int63(), DirentsRead: r.Int63(), EdgesEmitted: r.Int63(),
	}
	return p
}

func TestFIDInfoCodec(t *testing.T) {
	in := FIDInfo{
		Exists: true, Type: ldiskfs.TypeObject, Size: 123456,
		Xattrs: map[string][]byte{"lma": {1, 2}, "fid": {3, 4, 5}},
	}
	enc, err := encodeFIDInfo(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeFIDInfo(enc)
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: %+v %v", out, err)
	}
	enc, err = encodeFIDInfo(FIDInfo{})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := decodeFIDInfo(enc)
	if err != nil || empty.Exists || empty.Xattrs != nil {
		t.Fatalf("empty round trip: %+v %v", empty, err)
	}
}

// TestFIDInfoCodecBoundaries: the codec accepts exactly the widths its
// frame fields can carry and rejects one past each boundary instead of
// silently truncating (the truncation used to make the decoder misparse
// every following record).
func TestFIDInfoCodecBoundaries(t *testing.T) {
	longName := strings.Repeat("n", 255)
	in := FIDInfo{Exists: true, Xattrs: map[string][]byte{longName: {7}}}
	enc, err := encodeFIDInfo(in)
	if err != nil {
		t.Fatalf("255-byte name rejected: %v", err)
	}
	out, err := decodeFIDInfo(enc)
	if err != nil || !reflect.DeepEqual(in, out) {
		t.Fatalf("255-byte name round trip: %v", err)
	}

	tooLong := strings.Repeat("n", 256)
	if _, err := encodeFIDInfo(FIDInfo{Xattrs: map[string][]byte{tooLong: nil}}); err == nil {
		t.Error("256-byte xattr name encoded (would truncate)")
	}

	many := make(map[string][]byte, 1<<16)
	for i := 0; i < 1<<16; i++ {
		many[fmt.Sprintf("x%05d", i)] = nil
	}
	if _, err := encodeFIDInfo(FIDInfo{Xattrs: many}); err == nil {
		t.Error("65536 xattrs encoded (count field would wrap to 0)")
	}
	delete(many, "x00000")
	enc, err = encodeFIDInfo(FIDInfo{Exists: true, Xattrs: many})
	if err != nil {
		t.Fatalf("65535 xattrs rejected: %v", err)
	}
	out, err = decodeFIDInfo(enc)
	if err != nil || len(out.Xattrs) != 1<<16-1 {
		t.Fatalf("65535-xattr round trip: %d xattrs, %v", len(out.Xattrs), err)
	}
}

func serviceCluster(t *testing.T) (*lustre.Cluster, lustre.Entry) {
	t.Helper()
	c, err := lustre.NewCluster(lustre.Config{
		NumOSTs: 2, StripeSize: 64 << 10, Geometry: ldiskfs.CompactGeometry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ent, err := c.Create("/file", 130<<10)
	if err != nil {
		t.Fatal(err)
	}
	return c, ent
}

func TestObjectServiceLocalStat(t *testing.T) {
	c, ent := serviceCluster(t)
	svc, err := NewObjectService(c.MDT.Img)
	if err != nil {
		t.Fatal(err)
	}
	info := svc.Stat(ent.FID)
	if !info.Exists || info.Type != ldiskfs.TypeFile || info.Size != uint64(130<<10) {
		t.Fatalf("stat: %+v", info)
	}
	if _, ok := info.Xattrs[lustre.XattrLOV]; !ok {
		t.Error("LOVEA missing from stat")
	}
	if svc.Stat(lustre.FID{Seq: 1, Oid: 1}).Exists {
		t.Error("nonexistent FID exists")
	}
}

func TestObjectServiceOverTCP(t *testing.T) {
	c, ent := serviceCluster(t)
	svc, err := NewObjectService(c.MDT.Img)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := svc.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	info, err := cli.Stat(ent.FID)
	if err != nil || !info.Exists || info.Size != uint64(130<<10) {
		t.Fatalf("rpc stat: %+v %v", info, err)
	}
	missing, err := cli.Stat(lustre.FID{Seq: 99, Oid: 99})
	if err != nil || missing.Exists {
		t.Fatalf("missing stat: %+v %v", missing, err)
	}
	// Concurrent clients.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cli.Close()
			for j := 0; j < 20; j++ {
				if _, err := cli.Stat(ent.FID); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStatBatchOverTCP: the batched RPC answers in submission order and
// agrees with per-FID Stat, including misses.
func TestStatBatchOverTCP(t *testing.T) {
	c, ent := serviceCluster(t)
	svc, err := NewObjectService(c.MDT.Img)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := svc.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	missing := lustre.FID{Seq: 0xEEE, Oid: 1}
	fids := []lustre.FID{ent.FID, missing, lustre.RootFID, ent.FID}
	batch, err := cli.StatBatch(fids)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(fids) {
		t.Fatalf("batch size %d", len(batch))
	}
	for i, f := range fids {
		single, err := cli.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Exists != single.Exists || batch[i].Size != single.Size ||
			batch[i].Type != single.Type {
			t.Errorf("record %d diverges: %+v vs %+v", i, batch[i], single)
		}
	}
	if batch[1].Exists {
		t.Error("missing FID exists in batch")
	}
	// Empty batch is legal.
	empty, err := cli.StatBatch(nil)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty batch: %v %v", empty, err)
	}
}

func TestDecodeStatBatchErrors(t *testing.T) {
	if _, err := decodeStatBatch(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := decodeStatBatch([]byte{2, 0, 0, 0, 1}); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestRawConnBadMessage(t *testing.T) {
	c, _ := serviceCluster(t)
	svc, _ := NewObjectService(c.MDT.Img)
	addr, err := svc.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// bad StatFID payload size
	if err := WriteFrame(conn, MsgStatFID, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(conn)
	if err != nil || AsError(typ, payload) == nil {
		t.Fatalf("want error frame, got %d %v", typ, err)
	}
	// unknown message type
	if err := WriteFrame(conn, 200, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = ReadFrame(conn)
	if err != nil || AsError(typ, payload) == nil {
		t.Fatalf("want error frame, got %d %v", typ, err)
	}
}
