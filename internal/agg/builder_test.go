package agg

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
	"faultyrank/internal/telemetry"
)

// recSink records a scan's chunk stream.
type recSink struct{ chunks []*scanner.Chunk }

func (r *recSink) Emit(c *scanner.Chunk) error {
	r.chunks = append(r.chunks, c)
	return nil
}

func clusterImages(c *lustre.Cluster) []*ldiskfs.Image {
	images := []*ldiskfs.Image{c.MDT.Img}
	for _, ost := range c.OSTs {
		images = append(images, ost.Img)
	}
	return images
}

// recordStreams scans every image into its own recorded chunk stream.
func recordStreams(t *testing.T, images []*ldiskfs.Image, chunkEntries int) (labels []string, streams [][]*scanner.Chunk) {
	t.Helper()
	for _, img := range images {
		sink := &recSink{}
		if err := scanner.ScanImageToSink(img, 0, chunkEntries, sink); err != nil {
			t.Fatal(err)
		}
		labels = append(labels, img.Label())
		streams = append(streams, sink.chunks)
	}
	return labels, streams
}

// emitInterleaved feeds the streams to b in a random interleaving that
// keeps each server's own order (r == nil: one server after the other).
func emitInterleaved(t *testing.T, b *Builder, streams [][]*scanner.Chunk, r *rand.Rand) {
	t.Helper()
	next := make([]int, len(streams))
	var open []int
	for i, s := range streams {
		if len(s) > 0 {
			open = append(open, i)
		}
	}
	for len(open) > 0 {
		k := 0
		if r != nil {
			k = r.Intn(len(open))
		}
		i := open[k]
		if err := b.Emit(streams[i][next[i]]); err != nil {
			t.Fatal(err)
		}
		if next[i]++; next[i] == len(streams[i]) {
			open = append(open[:k], open[k+1:]...)
		}
	}
}

// TestBuilderIndependentOfChunking: whatever the chunk size and however
// the servers' chunks interleave on arrival, the reassembled partials
// equal the bulk scans and Finish equals their merge.
func TestBuilderIndependentOfChunking(t *testing.T) {
	c := smallCluster(t)
	parts := scanCluster(t, c)
	want := mergeReference(parts)
	for _, chunkEntries := range []int{1, 7, 8192} {
		labels, streams := recordStreams(t, clusterImages(c), chunkEntries)
		for _, r := range []*rand.Rand{nil, rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))} {
			b := NewBuilder(labels)
			emitInterleaved(t, b, streams, r)
			got, err := b.Partials()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, parts) {
				t.Fatalf("chunk size %d: reassembled partials diverge from the bulk scan", chunkEntries)
			}
			u, err := b.Finish(3)
			if err != nil {
				t.Fatal(err)
			}
			assertUnifiedIdentical(t, "chunked intake", want, u)
		}
	}
}

// TestBuilderLeavesChunksUntouched pins the sink half of the
// scanner.Sink ownership rule: a Builder retains the chunks it is given
// and never writes to them, so one recorded stream can feed any number
// of builders (benchmark/ replays recorded chunks on every operation).
func TestBuilderLeavesChunksUntouched(t *testing.T) {
	labels, streams := recordStreams(t, clusterImages(smallCluster(t)), 16)
	pristine := make([][]*scanner.Chunk, len(streams))
	for i, s := range streams {
		for _, c := range s {
			cp := *c
			cp.Objects = scanner.ObjectRecords(bytes.Clone(c.Objects.Bytes()))
			cp.Edges = scanner.EdgeRecords(bytes.Clone(c.Edges.Bytes()))
			cp.Issues = append([]scanner.Issue(nil), c.Issues...)
			pristine[i] = append(pristine[i], &cp)
		}
	}
	var us [2]*Unified
	for i := range us {
		b := NewBuilder(labels)
		emitInterleaved(t, b, streams, nil)
		u, err := b.Finish(2)
		if err != nil {
			t.Fatal(err)
		}
		// Writing to a merged partial must not reach the chunks either.
		parts, _ := b.Partials()
		for _, p := range parts {
			clear(p.Objects.Bytes())
			clear(p.Edges.Bytes())
		}
		us[i] = u
	}
	assertUnifiedIdentical(t, "second builder over the same chunks", us[0], us[1])
	if !reflect.DeepEqual(streams, pristine) {
		t.Fatal("a Builder modified the chunks it was given")
	}
}

// TestFinishAllocs: Finish merges straight from the retained chunks, so
// beyond the Unified's own arrays and the merge's two index vectors
// (one GID per object, one claim count per vertex) it allocates nothing
// that grows with the graph — in particular no concatenated copy of the
// objects and edges, which alone would be 1.6x the edge array.
func TestFinishAllocs(t *testing.T) {
	// A phantom-free graph: every edge joins two scanned objects, so the
	// FID table is sized once from the object count, as on a clean
	// cluster.
	const nParts, nObj, nEdge, perChunk = 4, 6000, 18000, 1500
	r := rand.New(rand.NewSource(3))
	parts := make([]*scanner.Partial, nParts)
	labels := make([]string, nParts)
	for i := range parts {
		p := &scanner.Partial{ServerLabel: fmt.Sprintf("srv%d", i)}
		for k := 0; k < nObj; k++ {
			p.Objects.Append(scanner.Object{FID: lustre.FID{Seq: uint64(i + 1), Oid: uint32(k)}, Ino: ldiskfs.Ino(k + 1), Type: ldiskfs.TypeFile})
		}
		for k := 0; k < nEdge; k++ {
			// A source the stream has carried by the edge's chunk.
			p.Edges.Append(scanner.Edge{
				Src: uint32(r.Intn(k/3 + 1)), Dst: lustre.FID{Seq: uint64(r.Intn(nParts) + 1), Oid: uint32(r.Intn(nObj))},
			})
		}
		parts[i], labels[i] = p, p.ServerLabel
	}
	b := NewBuilder(labels)
	for _, p := range parts {
		seq := 0
		for lo := 0; lo < nObj; lo += perChunk {
			c := &scanner.Chunk{ServerLabel: p.ServerLabel, Seq: seq}
			c.Objects = scanner.ObjectRecords(p.Objects.Bytes()[lo*scanner.ObjectSize : (lo+perChunk)*scanner.ObjectSize])
			c.Edges = scanner.EdgeRecords(p.Edges.Bytes()[3*lo*scanner.EdgeSize : 3*(lo+perChunk)*scanner.EdgeSize])
			if c.Final = lo+perChunk == nObj; c.Final {
				c.Issues = p.Issues
			}
			if err := b.Emit(c); err != nil {
				t.Fatal(err)
			}
			seq++
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	u, err := b.Finish(2)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	assertUnifiedIdentical(t, "merge from chunks", mergeReference(parts), u)

	n, objs := uint64(u.N()), uint64(nParts*nObj)
	own := uint64(cap(u.FIDs))*uint64(unsafe.Sizeof(lustre.FID{})) +
		uint64(u.byFID.bytes()) +
		uint64(cap(u.Edges))*uint64(unsafe.Sizeof(u.Edges[0])) +
		n*(1+uint64(unsafe.Sizeof(u.Types[0]))+uint64(unsafe.Sizeof(u.Claims[0]))) +
		objs*uint64(unsafe.Sizeof(ObjectLoc{}))
	temps := 4*objs + 4*n
	got := after.TotalAlloc - before.TotalAlloc
	if limit := (own+temps)*21/20 + 64<<10; got > limit {
		t.Fatalf("Finish allocated %d bytes for a Unified of %d (+%d of index vectors): more than its own arrays", got, own, temps)
	}
	concat := objs*scanner.ObjectSize + uint64(nParts*nEdge)*scanner.EdgeSize
	if concat < (own+temps)/4 {
		t.Fatalf("test lost its point: a concatenation (%d bytes) would hide inside the tolerance of %d", concat, own+temps)
	}
}

// TestBuilderCountsOnlyAcceptedChunks: the intake counters report what
// the Builder ingested, so a chunk it rejects — for a server it does
// not know, or out of order — leaves all four of them as they were.
func TestBuilderCountsOnlyAcceptedChunks(t *testing.T) {
	m := NewMetrics(telemetry.NewRegistry())
	b := NewBuilder([]string{"mdt0"})
	b.Observe(m)
	chunk := func(label string, seq int) *scanner.Chunk {
		self := lustre.FID{Seq: lustre.MDTSeqBase, Oid: uint32(seq + 2)}
		return &scanner.Chunk{
			ServerLabel: label, Seq: seq,
			Objects: objectsOf(scanner.Object{FID: self, Ino: 12, Type: ldiskfs.TypeFile}),
			Edges:   edgesOf(scanner.Edge{Dst: lustre.FID{Seq: lustre.MDTSeqBase, Oid: 1}, Kind: graph.KindLinkEA}),
			Issues:  []scanner.Issue{{Ino: 13, What: "missing LMA"}},
		}
	}
	counts := func() [4]int64 {
		return [4]int64{m.Chunks.Value(), m.Objects.Value(), m.Edges.Value(), m.Issues.Value()}
	}
	if err := b.Emit(chunk("mdt0", 0)); err != nil {
		t.Fatal(err)
	}
	want := [4]int64{1, 1, 1, 1}
	if got := counts(); got != want {
		t.Fatalf("after one accepted chunk: counters %v, want %v", got, want)
	}
	for _, c := range []*scanner.Chunk{chunk("ost9", 0), chunk("mdt0", 5)} {
		if err := b.Emit(c); err == nil {
			t.Fatalf("chunk %s/%d accepted", c.ServerLabel, c.Seq)
		}
		if got := counts(); got != want {
			t.Fatalf("rejected chunk %s/%d counted: counters %v, want %v", c.ServerLabel, c.Seq, got, want)
		}
	}
}

// TestBuilderRefusesUnknownOrdinal: an edge may name as its source any
// object its stream has carried — in an earlier chunk or its own — and
// none beyond. A chunk naming one beyond is refused whole: no intake
// counter moves, the stream does not advance, and the merge sees only
// what was accepted.
func TestBuilderRefusesUnknownOrdinal(t *testing.T) {
	m := NewMetrics(telemetry.NewRegistry())
	b := NewBuilder([]string{"ost0"})
	b.Observe(m)
	counts := func() [4]int64 {
		return [4]int64{m.Chunks.Value(), m.Objects.Value(), m.Edges.Value(), m.Issues.Value()}
	}
	obj := func(oid uint32) scanner.Object {
		return scanner.Object{FID: lustre.FID{Seq: lustre.OSTSeqBase, Oid: oid}, Ino: ldiskfs.Ino(oid), Type: ldiskfs.TypeObject}
	}
	parent := lustre.FID{Seq: lustre.MDTSeqBase, Oid: 9}
	chunk := func(seq int, final bool, srcs ...uint32) *scanner.Chunk {
		c := &scanner.Chunk{ServerLabel: "ost0", Seq: seq, Final: final, Objects: objectsOf(obj(uint32(2*seq+1)), obj(uint32(2*seq+2)))}
		for _, s := range srcs {
			c.Edges.Append(scanner.Edge{Src: s, Dst: parent, Kind: graph.KindFilterFID})
		}
		return c
	}
	if err := b.Emit(chunk(0, false, 0, 1)); err != nil {
		t.Fatal(err)
	}
	want := counts()
	for _, c := range []*scanner.Chunk{chunk(1, true, 4), chunk(1, true, 2, 1<<32-1)} {
		if err := b.Emit(c); err == nil || !strings.Contains(err.Error(), "ordinal") {
			t.Fatalf("chunk naming source %d of a 4-object stream: err %v", c.Edges.SrcBound()-1, err)
		}
		if got := counts(); got != want {
			t.Fatalf("refused chunk counted: counters %v, want %v", got, want)
		}
	}
	// The same Seq with sources from both chunks is taken.
	if err := b.Emit(chunk(1, true, 0, 3, 2)); err != nil {
		t.Fatal(err)
	}
	u, err := b.Finish(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Edges) != 5 {
		t.Fatalf("merged %d edges, want the 5 accepted", len(u.Edges))
	}
	for i, src := range []uint32{0, 1, 0, 3, 2} {
		if got := u.FID(u.Edges[i].Src); got != obj(src+1).FID {
			t.Errorf("edge %d leaves %v, want object %d's %v", i, got, src, obj(src+1).FID)
		}
	}

	// A delta names its sources among its own objects.
	db := NewDeltaBuilder([]string{"ost0"})
	p := &scanner.Partial{Objects: objectsOf(obj(1)), Edges: edgesOf(scanner.Edge{Src: 1, Dst: parent, Kind: graph.KindFilterFID})}
	if err := db.Apply(0, 1, p); err == nil || db.Tracked(0, 1) {
		t.Fatalf("delta naming source 1 of its 1 object: err %v, tracked %v", err, db.Tracked(0, 1))
	}
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
