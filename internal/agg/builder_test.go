package agg

import (
	"math/rand"
	"reflect"
	"testing"

	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
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
			cp.Objects = append([]scanner.Object(nil), c.Objects...)
			cp.Edges = append([]scanner.FIDEdge(nil), c.Edges...)
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
			for k := range p.Objects {
				p.Objects[k].FID = lustre.FID{}
			}
			for k := range p.Edges {
				p.Edges[k].Src = lustre.FID{}
			}
		}
		us[i] = u
	}
	assertUnifiedIdentical(t, "second builder over the same chunks", us[0], us[1])
	if !reflect.DeepEqual(streams, pristine) {
		t.Fatal("a Builder modified the chunks it was given")
	}
}
