package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"faultyrank/internal/bincodec/bincodectest"
)

// codecShards builds real shards (every k, every partition) from a
// random bidirected graph, the same construction the coordinator ships.
func codecShards(t *testing.T) []*SubGraph {
	t.Helper()
	b := randomBidirected(t, 400, 2000, 7)
	var shards []*SubGraph
	for _, k := range []int{1, 2, 3, 8} {
		plan := PartitionPlan(b, randomOwners(b.N(), k, int64(k)), k, 4)
		shards = append(shards, plan.Parts...)
	}
	return shards
}

func TestSubGraphCodecRoundTrip(t *testing.T) {
	for _, sub := range codecShards(t) {
		blob := EncodeSubGraph(sub)
		got, err := DecodeSubGraph(blob)
		if err != nil {
			t.Fatalf("part %d: decode: %v", sub.Part, err)
		}
		if got.Part != sub.Part || got.CutEdges != sub.CutEdges {
			t.Fatalf("part %d: header mismatch: got part=%d cut=%d", sub.Part, got.Part, got.CutEdges)
		}
		// The decoded shard must re-encode byte-identically (the fuzz
		// invariant) and agree field by field up to nil-vs-empty.
		if !bytes.Equal(EncodeSubGraph(got), blob) {
			t.Fatalf("part %d: re-encode differs", sub.Part)
		}
		if !reflect.DeepEqual(got.Local, normNil(sub.Local)) ||
			!reflect.DeepEqual(got.Ghosts, normNil(sub.Ghosts)) ||
			!reflect.DeepEqual(got.RevCol, normNil(sub.RevCol)) ||
			!reflect.DeepEqual(got.FwdCol, normNil(sub.FwdCol)) {
			t.Fatalf("part %d: vertex/column arrays differ after round trip", sub.Part)
		}
		if !reflect.DeepEqual(got.RevOff, sub.RevOff) || !reflect.DeepEqual(got.FwdOff, sub.FwdOff) {
			t.Fatalf("part %d: offsets differ after round trip", sub.Part)
		}
	}
}

func normNil[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

func TestSubGraphCodecRejects(t *testing.T) {
	sub := codecShards(t)[5] // k=3, part 1: has locals, ghosts, schedules
	valid := EncodeSubGraph(sub)

	mutate := func(name string, f func(b []byte) []byte, want error) {
		t.Helper()
		b := f(append([]byte(nil), valid...))
		if _, err := DecodeSubGraph(b); !errors.Is(err, want) {
			t.Fatalf("%s: got %v, want %v", name, err, want)
		}
	}

	mutate("empty", func(b []byte) []byte { return nil }, ErrSubGraphCodec)
	mutate("bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrSubGraphVersion)
	mutate("future version", func(b []byte) []byte { b[4] = SubGraphCodecVersion + 1; return b }, ErrSubGraphVersion)
	mutate("truncated", func(b []byte) []byte { return b[:len(b)/2] }, ErrSubGraphCodec)
	mutate("trailing bytes", func(b []byte) []byte { return append(b, 0) }, ErrSubGraphCodec)
	mutate("part out of range", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[5:], 99)
		return b
	}, ErrSubGraphCodec)
	mutate("lying local count", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[19:], 1<<30)
		return b
	}, ErrSubGraphCodec)
	mutate("locals not ascending", func(b []byte) []byte {
		// Swap the first two local GIDs.
		a := binary.LittleEndian.Uint32(b[23:])
		binary.LittleEndian.PutUint32(b[23:], binary.LittleEndian.Uint32(b[27:]))
		binary.LittleEndian.PutUint32(b[27:], a)
		return b
	}, ErrSubGraphCodec)
	mutate("ghost aliases local", func(b []byte) []byte {
		// Overwrite the whole ghost list with the locals' first GID —
		// strictly ascending fails for >1 ghost only at entry 2, so hit
		// entry 0 with a value that IS a local.
		off := 23 + 4*len(sub.Local) + 4
		binary.LittleEndian.PutUint32(b[off:], sub.Local[0])
		return b
	}, ErrSubGraphCodec)

	// Offset-table attacks land after the vertex lists.
	offRev := 23 + 4*len(sub.Local) + 4 + 4*len(sub.Ghosts)
	mutate("rev offsets nonzero start", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[offRev:], 1)
		return b
	}, ErrSubGraphCodec)
	mutate("rev offsets decreasing", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[offRev+8:], 1<<40)
		return b
	}, ErrSubGraphCodec)
	mutate("rev column out of range", func(b []byte) []byte {
		colOff := offRev + 8*len(sub.RevOff)
		binary.LittleEndian.PutUint32(b[colOff:], uint32(sub.NCols()))
		return b
	}, ErrSubGraphCodec)
	mutate("bad paired flag", func(b []byte) []byte {
		off := offRev + 8*len(sub.RevOff) + 4*len(sub.RevCol) +
			8*len(sub.FwdOff) + 4*len(sub.FwdCol)
		b[off] = 2
		return b
	}, ErrSubGraphCodec)
	mutate("negative out-degree", func(b []byte) []byte {
		off := offRev + 8*len(sub.RevOff) + 4*len(sub.RevCol) +
			8*len(sub.FwdOff) + 4*len(sub.FwdCol) + len(sub.FwdPaired)
		binary.LittleEndian.PutUint32(b[off:], 1<<31)
		return b
	}, ErrSubGraphCodec)
}

// FuzzDecodeSubGraph drives hostile blobs through the bounded decoder:
// it must never panic or over-allocate, and any blob it accepts must
// re-encode byte-identically (the canonical-form invariant).
func FuzzDecodeSubGraph(f *testing.F) {
	b := NewBidirected(60, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 3, Dst: 1}}, 2)
	for _, k := range []int{1, 3} {
		owners := make([]uint16, b.N())
		for i := range owners {
			owners[i] = uint16(i % k)
		}
		for _, sub := range PartitionPlan(b, owners, k, 2).Parts {
			f.Add(EncodeSubGraph(sub))
		}
	}
	f.Add([]byte("FRSG"))
	f.Add([]byte{'F', 'R', 'S', 'G', 1, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, blob []byte) {
		bincodectest.RoundTrip(t, blob, DecodeSubGraph, EncodeSubGraph)
	})
}
