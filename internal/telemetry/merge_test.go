package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

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

// encoded is a snapshot's JSON form, the bytes a manifest carries.
func encoded(t *testing.T, s Snapshot) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The merge laws: merging N per-server snapshots in any order (and any
// associativity, via pairwise folds) yields a byte-identical result.
func TestMergeSnapshotsPermutationInvariant(t *testing.T) {
	snaps := serverSnapshots()
	want := encoded(t, MergeSnapshots(snaps...))

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(len(snaps))
		shuffled := make([]Snapshot, len(snaps))
		for i, p := range perm {
			shuffled[i] = snaps[p]
		}
		if got := encoded(t, MergeSnapshots(shuffled...)); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (perm %v): merge is order-sensitive", trial, perm)
		}
		// Associativity: fold left pairwise vs fold in one shot. Each
		// pairwise merge re-canonicalises, so any grouping must agree.
		acc := shuffled[0]
		for _, s := range shuffled[1:] {
			acc = MergeSnapshots(acc, s)
		}
		if got := encoded(t, acc); !bytes.Equal(got, want) {
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
