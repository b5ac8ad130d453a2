package telemetry

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"faultyrank/internal/bincodec"
)

func sampleSnapshot() Snapshot {
	return Snapshot{
		Counters: []CounterValue{
			{Name: "scanner_inodes_scanned_total", Value: 4096},
			{Name: "wire_bytes_sent_total", Value: 1 << 20},
			{Name: "wire_frames_sent_total", Value: 37},
		},
		Gauges: []GaugeValue{
			{Name: "agg_interner_size", Value: 812, Label: "ost3"},
		},
		Histograms: []HistogramValue{
			{
				Name:   "wire_frame_write_seconds",
				Bounds: []float64{0.001, 0.01, 0.1},
				Counts: []int64{10, 5, 2, 1},
				Sum:    0.731,
				Count:  18,
			},
		},
	}
}

func TestSnapshotCodecRoundtrip(t *testing.T) {
	s := sampleSnapshot()
	enc := EncodeSnapshot(s)
	got, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	re := EncodeSnapshot(got)
	if !bytes.Equal(enc, re) {
		t.Fatalf("re-encode differs:\n  %x\n  %x", enc, re)
	}
	if got.Counter("wire_frames_sent_total") != 37 {
		t.Fatalf("counter lost: %+v", got.Counters)
	}
	if got.Gauge("agg_interner_size") != 812 {
		t.Fatalf("gauge lost: %+v", got.Gauges)
	}
	h, ok := got.Histogram("wire_frame_write_seconds")
	if !ok || h.Count != 18 || h.Sum != 0.731 || len(h.Counts) != 4 {
		t.Fatalf("histogram lost: %+v ok=%v", h, ok)
	}
	if got.Gauges[0].Label != "ost3" {
		t.Fatalf("gauge label lost: %+v", got.Gauges[0])
	}
}

func TestSnapshotCodecEmptyRoundtrip(t *testing.T) {
	enc := EncodeSnapshot(Snapshot{})
	got, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if len(got.Counters)+len(got.Gauges)+len(got.Histograms) != 0 {
		t.Fatalf("empty snapshot decoded non-empty: %+v", got)
	}
}

// Encoding canonicalises unsorted input, so decode(encode(x)) is stable
// regardless of the order instruments were handed over in.
func TestSnapshotEncodeCanonicalises(t *testing.T) {
	a := sampleSnapshot()
	b := sampleSnapshot()
	for i, j := 0, len(b.Counters)-1; i < j; i, j = i+1, j-1 {
		b.Counters[i], b.Counters[j] = b.Counters[j], b.Counters[i]
	}
	if !bytes.Equal(EncodeSnapshot(a), EncodeSnapshot(b)) {
		t.Fatal("encoding is order-sensitive; canonicalisation broken")
	}
}

func TestSnapshotDecodeRejects(t *testing.T) {
	valid := EncodeSnapshot(sampleSnapshot())
	cases := map[string][]byte{
		"empty":    {},
		"shortHdr": valid[:3],
		"badMagic": append([]byte("XXXX"), valid[4:]...),
		"badVer": func() []byte {
			b := append([]byte(nil), valid...)
			b[4] = 99
			return b
		}(),
		"wrongKind": func() []byte {
			b := append([]byte(nil), valid...)
			b[5] = codecKindSpan
			return b
		}(),
		"truncated": valid[:len(valid)-3],
		"trailing":  append(append([]byte(nil), valid...), 0xAB),
	}
	for name, b := range cases {
		if _, err := DecodeSnapshot(b); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
}

// Non-canonical payloads (out-of-order or duplicate names, unsorted
// bounds) must be rejected: that is what makes decode→encode the
// identity.
func TestSnapshotDecodeRejectsNonCanonical(t *testing.T) {
	unsorted := Snapshot{Counters: []CounterValue{{Name: "b", Value: 1}, {Name: "a", Value: 2}}}
	// Build the wire form by hand so sorting in Encode can't save it.
	raw := appendHeader(nil, codecKindSnapshot)
	raw = le.AppendUint32(raw, 2)
	for _, c := range unsorted.Counters {
		raw = bincodec.AppendStr16(raw, c.Name)
		raw = le.AppendUint64(raw, uint64(c.Value))
	}
	raw = le.AppendUint32(raw, 0)
	raw = le.AppendUint32(raw, 0)
	if _, err := DecodeSnapshot(raw); err == nil {
		t.Error("decode accepted out-of-order counters")
	}

	dup := appendHeader(nil, codecKindSnapshot)
	dup = le.AppendUint32(dup, 2)
	for i := 0; i < 2; i++ {
		dup = bincodec.AppendStr16(dup, "same")
		dup = le.AppendUint64(dup, 7)
	}
	dup = le.AppendUint32(dup, 0)
	dup = le.AppendUint32(dup, 0)
	if _, err := DecodeSnapshot(dup); err == nil {
		t.Error("decode accepted duplicate counter names")
	}

	badBounds := appendHeader(nil, codecKindSnapshot)
	badBounds = le.AppendUint32(badBounds, 0)
	badBounds = le.AppendUint32(badBounds, 0)
	badBounds = le.AppendUint32(badBounds, 1)
	badBounds = bincodec.AppendStr16(badBounds, "h")
	badBounds = le.AppendUint32(badBounds, 2)
	badBounds = le.AppendUint64(badBounds, math.Float64bits(2.0))
	badBounds = le.AppendUint64(badBounds, math.Float64bits(1.0)) // descending
	for i := 0; i < 3; i++ {
		badBounds = le.AppendUint64(badBounds, 0)
	}
	badBounds = le.AppendUint64(badBounds, 0)
	badBounds = le.AppendUint64(badBounds, 0)
	if _, err := DecodeSnapshot(badBounds); err == nil {
		t.Error("decode accepted descending histogram bounds")
	}
}

// A lying header claiming huge instrument counts must fail fast without
// allocating proportionally to the claim.
func TestSnapshotDecodeBoundedAllocation(t *testing.T) {
	lies := [][]byte{
		func() []byte { // huge counter count, no payload behind it
			b := appendHeader(nil, codecKindSnapshot)
			return le.AppendUint32(b, 0xFFFFFFFF)
		}(),
		func() []byte { // huge histogram bound count
			b := appendHeader(nil, codecKindSnapshot)
			b = le.AppendUint32(b, 0)
			b = le.AppendUint32(b, 0)
			b = le.AppendUint32(b, 1)
			b = bincodec.AppendStr16(b, "h")
			return le.AppendUint32(b, 0x10000000)
		}(),
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, b := range lies {
		if _, err := DecodeSnapshot(b); err == nil {
			t.Fatal("decode accepted lying header")
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("lying headers caused %d bytes of allocation", grew)
	}
}

func TestSpanCodecRoundtrip(t *testing.T) {
	n := &SpanNode{
		Name:     "run",
		Duration: 5 * time.Second,
		Seconds:  5.0,
		Children: []SpanNode{
			{Name: "scan", StartOffset: time.Millisecond, Duration: 3 * time.Second, Seconds: 3.0,
				Children: []SpanNode{{Name: "scan:ost0", Duration: time.Second, Seconds: 1.0}}},
			{Name: "aggregate", StartOffset: 3 * time.Second, Duration: time.Second, Seconds: 1.0},
		},
	}
	enc := EncodeSpanNode(n)
	got, err := DecodeSpanNode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(enc, EncodeSpanNode(got)) {
		t.Fatal("span re-encode differs")
	}
	if got.Find("scan:ost0") == nil || got.Find("aggregate") == nil {
		t.Fatalf("span tree lost nodes: %+v", got)
	}
}

func TestSpanDecodeRejects(t *testing.T) {
	valid := EncodeSpanNode(&SpanNode{Name: "x"})
	if _, err := DecodeSpanNode(valid[:len(valid)-1]); err == nil {
		t.Error("decode accepted truncated span")
	}
	if _, err := DecodeSpanNode(append(append([]byte(nil), valid...), 1)); err == nil {
		t.Error("decode accepted trailing bytes")
	}
	// Lying child count.
	lie := appendHeader(nil, codecKindSpan)
	lie = bincodec.AppendStr16(lie, "n")
	lie = le.AppendUint64(lie, 0)
	lie = le.AppendUint64(lie, 0)
	lie = le.AppendUint64(lie, 0)
	lie = le.AppendUint32(lie, 0xFFFFFF)
	if _, err := DecodeSpanNode(lie); err == nil {
		t.Error("decode accepted lying child count")
	}
}

func serverSnapshots() []Snapshot {
	snaps := make([]Snapshot, 0, 8)
	for i := 0; i < 8; i++ {
		r := NewRegistry()
		r.Counter("scanner_inodes_scanned_total").Add(int64(1000 + i*137))
		r.Counter("wire_frames_sent_total").Add(int64(10 + i))
		r.Counter("wire_bytes_sent_total").Add(int64(1<<16 + i*4096))
		r.Gauge("agg_interner_size").Set(int64(500 + (i*263)%400))
		h := r.Histogram("wire_frame_write_seconds", nil)
		for j := 0; j < 20+i; j++ {
			h.Observe(float64(j%7) * 0.003)
		}
		label := []string{"mdt0", "ost0", "ost1", "ost2", "ost3", "ost4", "ost5", "ost6"}[i]
		snaps = append(snaps, r.Snapshot().Labeled(label))
	}
	return snaps
}

// The merge laws: merging N per-server snapshots in any order (and any
// associativity, via pairwise folds) yields a byte-identical result.
func TestMergeSnapshotsPermutationInvariant(t *testing.T) {
	snaps := serverSnapshots()
	want := EncodeSnapshot(MergeSnapshots(snaps...))

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(len(snaps))
		shuffled := make([]Snapshot, len(snaps))
		for i, p := range perm {
			shuffled[i] = snaps[p]
		}
		if got := EncodeSnapshot(MergeSnapshots(shuffled...)); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (perm %v): merge is order-sensitive", trial, perm)
		}
		// Associativity: fold left pairwise vs fold in one shot. Each
		// pairwise merge re-canonicalises, so any grouping must agree.
		acc := shuffled[0]
		for _, s := range shuffled[1:] {
			acc = MergeSnapshots(acc, s)
		}
		if got := EncodeSnapshot(acc); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: pairwise fold differs from flat merge", trial)
		}
	}
}

func TestMergeSnapshotsSemantics(t *testing.T) {
	snaps := serverSnapshots()
	m := MergeSnapshots(snaps...)

	var wantInodes int64
	var maxGauge int64
	var maxLabel string
	for _, s := range snaps {
		wantInodes += s.Counter("scanner_inodes_scanned_total")
		if v := s.Gauge("agg_interner_size"); v > maxGauge {
			maxGauge = v
			maxLabel = s.Gauges[0].Label
		}
	}
	if got := m.Counter("scanner_inodes_scanned_total"); got != wantInodes {
		t.Errorf("counter sum = %d, want %d", got, wantInodes)
	}
	var g *GaugeValue
	for i := range m.Gauges {
		if m.Gauges[i].Name == "agg_interner_size" {
			g = &m.Gauges[i]
		}
	}
	if g == nil || g.Value != maxGauge || g.Label != maxLabel {
		t.Errorf("gauge max = %+v, want value %d label %q", g, maxGauge, maxLabel)
	}

	var wantCount int64
	for _, s := range snaps {
		h, _ := s.Histogram("wire_frame_write_seconds")
		wantCount += h.Count
	}
	h, ok := m.Histogram("wire_frame_write_seconds")
	if !ok || h.Count != wantCount {
		t.Errorf("histogram count = %d (ok=%v), want %d", h.Count, ok, wantCount)
	}
	var bucketTotal int64
	for _, c := range h.Counts {
		bucketTotal += c
	}
	if bucketTotal != wantCount {
		t.Errorf("bucket totals %d disagree with count %d", bucketTotal, wantCount)
	}
}

// Merging histograms whose bounds differ must take the union of bounds,
// keeping per-bucket counts attached to their own upper edge.
func TestMergeSnapshotsBoundUnion(t *testing.T) {
	a := Snapshot{Histograms: []HistogramValue{{
		Name: "h", Bounds: []float64{1, 10}, Counts: []int64{3, 2, 1}, Sum: 12, Count: 6,
	}}}
	b := Snapshot{Histograms: []HistogramValue{{
		Name: "h", Bounds: []float64{5, 10}, Counts: []int64{4, 0, 2}, Sum: 30, Count: 6,
	}}}
	m := MergeSnapshots(a, b)
	h, ok := m.Histogram("h")
	if !ok {
		t.Fatal("merged histogram missing")
	}
	wantBounds := []float64{1, 5, 10}
	if len(h.Bounds) != 3 || h.Bounds[0] != 1 || h.Bounds[1] != 5 || h.Bounds[2] != 10 {
		t.Fatalf("bounds = %v, want %v", h.Bounds, wantBounds)
	}
	want := []int64{3, 4, 2, 3} // 1:3, 5:4, 10:2+0, +Inf:1+2
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("counts = %v, want %v", h.Counts, want)
		}
	}
	if h.Count != 12 || h.Sum != 42 {
		t.Fatalf("count/sum = %d/%v, want 12/42", h.Count, h.Sum)
	}
}
