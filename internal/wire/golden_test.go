package wire

import (
	"fmt"
	"net"
	"reflect"
	"testing"

	"faultyrank/internal/bincodec/bincodectest"
	"faultyrank/internal/core"
	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
)

// The golden tests pin every wire format to bytes committed under
// testdata/: Encode(value) must equal the file and Decode(file) must
// deep-equal the value. The values are fixed and seed-free.

var (
	goldenDir  = lustre.FID{Seq: lustre.MDTSeqBase, Oid: 2, Ver: 0}
	goldenFile = lustre.FID{Seq: lustre.MDTSeqBase, Oid: 3, Ver: 1}
	goldenObj  = lustre.FID{Seq: lustre.OSTSeqBase + 1, Oid: 0x44, Ver: 0}
)

func TestGoldenChunk(t *testing.T) {
	want := &scanner.Chunk{
		ServerLabel: "mdt0", Seq: 7, Final: true,
		Objects: objectsOf(
			scanner.Object{FID: goldenDir, Ino: 12, Type: ldiskfs.TypeDir},
			scanner.Object{FID: goldenFile, Ino: 13, Type: ldiskfs.TypeFile},
		),
		Edges: edgesOf(
			scanner.FIDEdge{Src: goldenDir, Dst: goldenFile, Kind: graph.KindDirent},
			scanner.FIDEdge{Src: goldenFile, Dst: goldenDir, Kind: graph.KindLinkEA},
			scanner.FIDEdge{Src: goldenFile, Dst: goldenObj, Kind: graph.KindLOVEA},
		),
		Issues: []scanner.Issue{{Ino: 14, What: "lma: short attribute"}},
		Stats:  scanner.Stats{InodesScanned: 3, DirentsRead: 1, EdgesEmitted: 3},
	}
	file := bincodectest.Golden(t, "chunk", EncodeChunk(want))
	got, err := DecodeChunk(file)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("decode golden: %+v, %v", got, err)
	}
}

// goldenRankDeltas is one frame per kind, each carrying the fields that
// kind uses in the superstep protocol.
func goldenRankDeltas() map[string]*core.RankDelta {
	return map[string]*core.RankDelta{
		"hello":  {Kind: core.RankHello, Part: 1},
		"init":   {Kind: core.RankInit, Part: 1, ID: []float64{0.25, 0.75}, Prop: []float64{0.5, 0.5}, UnpairedWeight: 0.1, Smoothing: 0.5, Leaky: true},
		"up_a":   {Kind: core.RankUpA, Part: 2, Iter: 4, Sink: []float64{0.125}, Bound: [][]float64{{1, 2}, nil, {3}}},
		"down_a": {Kind: core.RankDownA, Iter: 4, Base: 0.0625, PerSink: 0.03125, Ghost: []float64{0.5, 0.25, 0.125}},
		"up_b":   {Kind: core.RankUpB, Part: 2, Iter: 4, Diff: 1e-9, Sink: []float64{0.875, 0.0078125}, Bound: [][]float64{nil, {4, 5}}},
		"down_b": {Kind: core.RankDownB, Iter: 4, Base: 0.5, PerSink: 0.25, Halt: true, Ghost: []float64{-1}},
		"done":   {Kind: core.RankDone, Part: 2, ID: []float64{1, 2, 3}, Prop: []float64{4, 5, 6}},
	}
}

func TestGoldenRankDelta(t *testing.T) {
	for name, want := range goldenRankDeltas() {
		enc := EncodeRankDelta(want)
		if len(enc) != want.WireSize() {
			t.Fatalf("%s: %d bytes encoded, WireSize says %d", name, len(enc), want.WireSize())
		}
		file := bincodectest.Golden(t, "rankdelta_"+name, enc)
		got, err := DecodeRankDelta(file)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decode golden: %+v, %v", name, got, err)
		}
	}
}

func TestGoldenFIDInfo(t *testing.T) {
	// One xattr only: the encoder walks the map in iteration order.
	want := FIDInfo{
		Exists: true, Type: ldiskfs.TypeObject, Size: 1 << 20,
		Xattrs: map[string][]byte{lustre.XattrLMA: lustre.EncodeLMA(goldenObj)},
	}
	enc, err := encodeFIDInfo(want)
	if err != nil {
		t.Fatal(err)
	}
	file := bincodectest.Golden(t, "fidinfo", enc)
	got, err := decodeFIDInfo(file)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("decode golden: %+v, %v", got, err)
	}
}

// TestGoldenStatBatch pins both directions of the batched stat RPC by
// playing each peer against the real other end over an in-memory pipe:
// the client's request payload and the service's reply payload must
// equal the committed bytes, and each side must decode the other's
// golden to the right values.
func TestGoldenStatBatch(t *testing.T) {
	img := ldiskfs.MustNew(ldiskfs.CompactGeometry())
	ino, err := img.AllocInode(ldiskfs.TypeObject)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.SetXattr(ino, lustre.XattrLMA, lustre.EncodeLMA(goldenObj)); err != nil {
		t.Fatal(err)
	}
	if err := img.SetSize(ino, 4096); err != nil {
		t.Fatal(err)
	}
	svc, err := NewObjectService(img)
	if err != nil {
		t.Fatal(err)
	}
	fids := []lustre.FID{goldenObj, goldenFile} // one present, one absent
	want := []FIDInfo{svc.Stat(goldenObj), {}}
	if !want[0].Exists || want[0].Size != 4096 || len(want[0].Xattrs) != 1 {
		t.Fatalf("fixture object: %+v", want[0])
	}

	// tap sits between the client and the service, recording the one
	// request and one reply payload that cross it.
	cliEnd, tapCli := net.Pipe()
	tapSvc, svcEnd := net.Pipe()
	go svc.handle(svcEnd)
	type crossed struct {
		req, reply []byte
		err        error
	}
	tapped := make(chan crossed, 1)
	go func() {
		var c crossed
		typ, req, err := ReadFrame(tapCli)
		if err == nil && typ != MsgStatBatch {
			err = fmt.Errorf("request frame type %d", typ)
		}
		if err == nil {
			c.req = req
			err = WriteFrame(tapSvc, typ, req)
		}
		if err == nil {
			typ, c.reply, err = ReadFrame(tapSvc)
			if err == nil && typ != MsgFIDInfoBatch {
				err = fmt.Errorf("reply frame type %d", typ)
			}
		}
		if err == nil {
			err = WriteFrame(tapCli, MsgFIDInfoBatch, c.reply)
		}
		c.err = err
		tapped <- c
		tapSvc.Close()
	}()

	cli := &Client{conn: cliEnd}
	got, err := cli.StatBatch(fids)
	c := <-tapped
	cliEnd.Close()
	if err != nil || c.err != nil {
		t.Fatalf("stat batch over pipe: %v / tap %v", err, c.err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("client decoded %+v, want %+v", got, want)
	}

	reqFile := bincodectest.Golden(t, "statbatch_request", c.req)
	decoded, err := decodeStatBatch(reqFile)
	if err != nil || !reflect.DeepEqual(decoded, fids) {
		t.Fatalf("decode golden request: %v, %v", decoded, err)
	}
	bincodectest.Golden(t, "statbatch_reply", c.reply)
}
