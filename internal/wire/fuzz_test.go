package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"faultyrank/internal/bincodec/bincodectest"
	"faultyrank/internal/core"
	"faultyrank/internal/scanner"
)

// FuzzDecodeChunk drives the streamed-chunk decoder with hostile bytes
// under the shared codec contract (bincodectest.RoundTrip). Count fields
// must be bounded before allocation, so implausible headers fail fast
// instead of OOMing.
func FuzzDecodeChunk(f *testing.F) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 4; i++ {
		f.Add(EncodeChunk(randomChunk(r)))
	}
	f.Add(EncodeChunk(&scanner.Chunk{ServerLabel: "mdt0", Final: true}))

	// Malformed frame lengths: counts far larger than the payload.
	huge := le.AppendUint16(nil, 0)
	huge = le.AppendUint32(huge, 3)
	huge = append(huge, 0)
	huge = le.AppendUint32(huge, 0xFFFFFFFF)
	f.Add(huge)

	// Truncated mid-FID: a valid chunk cut inside an object's FID bytes.
	full := EncodeChunk(chunksOf(randomPartial(rand.New(rand.NewSource(13))), 4)[0])
	if len(full) > 20 {
		f.Add(full[:len(full)-29]) // clips into the last object record
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		bincodectest.RoundTrip(t, b, DecodeChunk, EncodeChunk)
		// The record codec against the field-by-field reference: the
		// same verdict, the same typed view, the same bytes.
		got, err := DecodeChunk(b)
		want, refErr := decodeChunkReference(b)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeChunk error %v, reference error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(viewOf(got), viewOf(want)) {
			t.Fatal("DecodeChunk and the reference decode different chunks")
		}
		if !bytes.Equal(EncodeChunk(got), appendChunkReference(nil, want)) {
			t.Fatal("EncodeChunk and the reference encode different bytes")
		}
	})
}

// FuzzDecodeRankDelta drives the superstep-frame decoder with hostile
// bytes under the shared codec contract. Counts are bounded against the
// remaining payload before any vector is allocated, so a lying header
// costs an error, never an allocation. Floats cross as raw bit patterns,
// NaNs included — the reason RoundTrip falls back to comparing encodings.
func FuzzDecodeRankDelta(f *testing.F) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 5; i++ {
		f.Add(EncodeRankDelta(randomRankDelta(r)))
	}
	f.Add(EncodeRankDelta(&core.RankDelta{Kind: core.RankHello, Part: 3}))
	f.Add(EncodeRankDelta(&core.RankDelta{
		Kind: core.RankDownB, Iter: 9, Base: 0.25, PerSink: 0.5, Halt: true,
		Ghost: []float64{1, 2, 3},
	}))

	// Lying sink count far past the payload.
	lie := []byte{RankDeltaVersion, core.RankUpA}
	lie = le.AppendUint32(lie, 0)
	lie = le.AppendUint32(lie, 0)
	for i := 0; i < 5; i++ {
		lie = le.AppendUint64(lie, 0)
	}
	lie = append(lie, 0)
	lie = le.AppendUint32(lie, 0xFFFFFFFF)
	f.Add(lie)

	// Truncated mid-vector.
	full := EncodeRankDelta(&core.RankDelta{Kind: core.RankUpB, Sink: []float64{1, 2, 3}})
	f.Add(full[:len(full)-5])

	f.Fuzz(func(t *testing.T, b []byte) {
		bincodectest.RoundTrip(t, b, DecodeRankDelta, EncodeRankDelta)
	})
}
