package telemetry

import (
	"encoding/binary"
	"math"
	"sort"
	"time"

	"faultyrank/internal/bincodec"
)

// This file is the cluster side of the telemetry package: a
// deterministic, versioned binary codec for Snapshot and SpanNode (no
// longer on the wire: a scanner's snapshot and span reach the cluster
// manifest in process, so only this package's tests encode them), and
// the merge semantics that fold per-server snapshots into one cluster
// view.
//
// Codec invariants:
//
//   - Versioned: every blob starts with "FRTM" | version | kind, so a
//     mixed-version cluster fails loudly instead of misparsing.
//   - Canonical: instruments encode sorted by name and decode REJECTS
//     out-of-order or duplicate names, so encoding is bijective — a
//     payload either fails to decode or re-encodes byte-identically.
//   - Bounded: counts from untrusted headers are sanity-checked against
//     the remaining payload before any allocation sized from them.
//
// Merge semantics (MergeSnapshots): counters sum, gauges keep the
// labeled maximum, histograms add bucket-wise (union of bounds). Every
// per-instrument operation is a commutative monoid — integer sums,
// max under a total order on (value, label), pointwise bucket sums —
// and float sums are accumulated in canonically sorted order, so the
// merge of N snapshots is permutation-invariant down to the byte
// (asserted by the codec tests and the checker's cluster tests).

// CodecVersion identifies the binary layout of telemetry blobs. Bump on
// any incompatible change.
const CodecVersion = 1

const (
	codecKindSnapshot = 1
	codecKindSpan     = 2
)

const codecMagic = "FRTM"

var (
	snapshotFormat = bincodec.Format{Name: "telemetry: snapshot"}
	spanFormat     = bincodec.Format{Name: "telemetry: span"}
)

var le = binary.LittleEndian

func appendHeader(b []byte, kind byte) []byte {
	b = append(b, codecMagic...)
	return append(b, CodecVersion, kind)
}

// header reads magic | version | kind.
func header(d *bincodec.Reader, kind byte) {
	d.Header(codecMagic, CodecVersion)
	if k := d.U8(); k != kind {
		d.Failf("blob kind %d, want %d", k, kind)
	}
}

// EncodeSnapshot renders s as a versioned binary blob. Instruments are
// canonicalised (sorted by name) before encoding, so equal snapshots
// always produce identical bytes.
func EncodeSnapshot(s Snapshot) []byte {
	return AppendSnapshot(nil, s)
}

// AppendSnapshot appends the encoding of s to b.
func AppendSnapshot(b []byte, s Snapshot) []byte {
	b = appendHeader(b, codecKindSnapshot)

	cs := append([]CounterValue(nil), s.Counters...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
	b = le.AppendUint32(b, uint32(len(cs)))
	for _, c := range cs {
		b = bincodec.AppendStr16(b, c.Name)
		b = le.AppendUint64(b, uint64(c.Value))
	}

	gs := append([]GaugeValue(nil), s.Gauges...)
	sort.Slice(gs, func(i, j int) bool { return gs[i].Name < gs[j].Name })
	b = le.AppendUint32(b, uint32(len(gs)))
	for _, g := range gs {
		b = bincodec.AppendStr16(b, g.Name)
		b = bincodec.AppendStr16(b, g.Label)
		b = le.AppendUint64(b, uint64(g.Value))
	}

	hs := append([]HistogramValue(nil), s.Histograms...)
	sort.Slice(hs, func(i, j int) bool { return hs[i].Name < hs[j].Name })
	b = le.AppendUint32(b, uint32(len(hs)))
	for _, h := range hs {
		b = bincodec.AppendStr16(b, h.Name)
		b = le.AppendUint32(b, uint32(len(h.Bounds)))
		for _, ub := range h.Bounds {
			b = le.AppendUint64(b, math.Float64bits(ub))
		}
		// Always len(bounds)+1 counts on the wire; a hand-built value
		// with a short Counts slice encodes missing buckets as zero.
		for i := 0; i <= len(h.Bounds); i++ {
			var n int64
			if i < len(h.Counts) {
				n = h.Counts[i]
			}
			b = le.AppendUint64(b, uint64(n))
		}
		b = le.AppendUint64(b, math.Float64bits(h.Sum))
		b = le.AppendUint64(b, uint64(h.Count))
	}
	return b
}

// DecodeSnapshot parses an encoded snapshot. Counts are sanity-bounded
// against the payload before allocation, and the canonical form —
// strictly ascending instrument names — is enforced, which is what
// makes the codec bijective.
func DecodeSnapshot(b []byte) (Snapshot, error) {
	d := bincodec.NewReader(&snapshotFormat, b)
	header(d, codecKindSnapshot)
	var s Snapshot

	// Minimum counter record: 2-byte name length + 8-byte value.
	nC := d.Count(uint64(d.U32()), 10)
	prev := ""
	for i := 0; i < nC && d.Err() == nil; i++ {
		name := d.Str16()
		v := int64(d.U64())
		if i > 0 && name <= prev {
			d.Failf("counters not in canonical order at %q", name)
		}
		prev = name
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: v})
	}

	nG := d.Count(uint64(d.U32()), 12)
	prev = ""
	for i := 0; i < nG && d.Err() == nil; i++ {
		name := d.Str16()
		label := d.Str16()
		v := int64(d.U64())
		if i > 0 && name <= prev {
			d.Failf("gauges not in canonical order at %q", name)
		}
		prev = name
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Label: label, Value: v})
	}

	// Minimum histogram record: name len + bound count + one (+Inf)
	// bucket + sum + count.
	nH := d.Count(uint64(d.U32()), 30)
	prev = ""
	for i := 0; i < nH && d.Err() == nil; i++ {
		hv := HistogramValue{Name: d.Str16()}
		// Each bound brings its own 8 bytes and an 8-byte bucket count.
		nB := d.Count(uint64(d.U32()), 16)
		if d.Err() != nil {
			break
		}
		if nB > 0 {
			hv.Bounds = make([]float64, nB)
		}
		for j := range hv.Bounds {
			hv.Bounds[j] = d.F64()
			if j > 0 && !(hv.Bounds[j-1] < hv.Bounds[j]) {
				d.Failf("histogram %q bounds not ascending", hv.Name)
			}
		}
		hv.Counts = make([]int64, nB+1)
		for j := range hv.Counts {
			hv.Counts[j] = int64(d.U64())
		}
		hv.Sum = d.F64()
		hv.Count = int64(d.U64())
		if i > 0 && hv.Name <= prev {
			d.Failf("histograms not in canonical order at %q", hv.Name)
		}
		prev = hv.Name
		s.Histograms = append(s.Histograms, hv)
	}

	if err := d.Finish(); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}

// EncodeSpanNode renders a span tree as a versioned binary blob.
func EncodeSpanNode(n *SpanNode) []byte {
	return AppendSpanNode(nil, n)
}

// AppendSpanNode appends the encoding of the tree rooted at n to b.
func AppendSpanNode(b []byte, n *SpanNode) []byte {
	b = appendHeader(b, codecKindSpan)
	return appendSpanBody(b, n)
}

func appendSpanBody(b []byte, n *SpanNode) []byte {
	if n == nil {
		n = &SpanNode{}
	}
	b = bincodec.AppendStr16(b, n.Name)
	b = le.AppendUint64(b, uint64(n.StartOffset))
	b = le.AppendUint64(b, uint64(n.Duration))
	b = le.AppendUint64(b, math.Float64bits(n.Seconds))
	b = le.AppendUint32(b, uint32(len(n.Children)))
	for i := range n.Children {
		b = appendSpanBody(b, &n.Children[i])
	}
	return b
}

// spanMinRecord is the smallest possible encoded node (empty name, no
// children): the allocation bound for child counts from hostile input.
const spanMinRecord = 2 + 8 + 8 + 8 + 4

// maxSpanDepth bounds decode recursion against adversarial deep chains.
const maxSpanDepth = 1024

// DecodeSpanNode parses an encoded span tree, bounding child counts
// against the remaining payload and the nesting depth.
func DecodeSpanNode(b []byte) (*SpanNode, error) {
	d := bincodec.NewReader(&spanFormat, b)
	header(d, codecKindSpan)
	n := decodeSpanBody(d, 0)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return n, nil
}

func decodeSpanBody(d *bincodec.Reader, depth int) *SpanNode {
	if depth > maxSpanDepth {
		d.Failf("span tree deeper than %d", maxSpanDepth)
		return nil
	}
	n := &SpanNode{}
	n.Name = d.Str16()
	n.StartOffset = time.Duration(d.U64())
	n.Duration = time.Duration(d.U64())
	n.Seconds = d.F64()
	nKids := d.Count(uint64(d.U32()), spanMinRecord)
	for i := 0; i < nKids && d.Err() == nil; i++ {
		if c := decodeSpanBody(d, depth+1); c != nil {
			n.Children = append(n.Children, *c)
		}
	}
	return n
}

// Labeled returns a copy of s with every gauge's origin label set to
// server — the stamp a scanner applies before shipping its snapshot, so
// a merged cluster view can attribute each gauge maximum to the server
// that held it.
func (s Snapshot) Labeled(server string) Snapshot {
	out := Snapshot{
		Counters:   append([]CounterValue(nil), s.Counters...),
		Gauges:     append([]GaugeValue(nil), s.Gauges...),
		Histograms: append([]HistogramValue(nil), s.Histograms...),
	}
	for i := range out.Gauges {
		out.Gauges[i].Label = server
	}
	return out
}

// Histogram returns the named histogram in the snapshot (false when
// absent) — the lookup the cluster manifest's derived columns use.
func (s Snapshot) Histogram(name string) (HistogramValue, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramValue{}, false
}

// MergeSnapshots folds any number of per-server snapshots into one
// cluster snapshot: counters sum, gauges keep the labeled maximum
// (ties broken toward the lexicographically smaller label), histograms
// add bucket-wise over the union of their bounds. The result is
// canonical (name-sorted) and permutation-invariant: merging the same
// snapshots in any order yields byte-identical encodings, because every
// per-instrument operation is commutative and float sums are
// accumulated in sorted order.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	counters := make(map[string]int64)
	type gmax struct {
		v     int64
		label string
		set   bool
	}
	gauges := make(map[string]*gmax)
	type hacc struct {
		buckets map[float64]int64
		inf     int64
		sums    []float64
		count   int64
	}
	hists := make(map[string]*hacc)

	for _, s := range snaps {
		for _, c := range s.Counters {
			counters[c.Name] += c.Value
		}
		for _, g := range s.Gauges {
			cur := gauges[g.Name]
			if cur == nil {
				cur = &gmax{}
				gauges[g.Name] = cur
			}
			// Max under the total order (value desc, label asc): taking
			// the maximum of a total order is commutative+associative.
			if !cur.set || g.Value > cur.v || (g.Value == cur.v && g.Label < cur.label) {
				*cur = gmax{v: g.Value, label: g.Label, set: true}
			}
		}
		for _, h := range s.Histograms {
			a := hists[h.Name]
			if a == nil {
				a = &hacc{buckets: make(map[float64]int64)}
				hists[h.Name] = a
			}
			for i, ub := range h.Bounds {
				if i < len(h.Counts) {
					a.buckets[ub] += h.Counts[i]
				}
			}
			if len(h.Counts) > len(h.Bounds) {
				a.inf += h.Counts[len(h.Bounds)]
			}
			if len(h.sumTerms) > 0 {
				a.sums = append(a.sums, h.sumTerms...)
			} else {
				a.sums = append(a.sums, h.Sum)
			}
			a.count += h.Count
		}
	}

	var out Snapshot
	for name, v := range counters {
		out.Counters = append(out.Counters, CounterValue{Name: name, Value: v})
	}
	for name, g := range gauges {
		out.Gauges = append(out.Gauges, GaugeValue{Name: name, Value: g.v, Label: g.label})
	}
	for name, a := range hists {
		hv := HistogramValue{Name: name, Count: a.count}
		for ub := range a.buckets {
			hv.Bounds = append(hv.Bounds, ub)
		}
		sort.Float64s(hv.Bounds)
		hv.Counts = make([]int64, len(hv.Bounds)+1)
		for i, ub := range hv.Bounds {
			hv.Counts[i] = a.buckets[ub]
		}
		hv.Counts[len(hv.Bounds)] = a.inf
		// Float sums folded in sorted order over the full multiset of
		// constituent terms: permutation- and grouping-invariant to the
		// bit (the terms ride along for any further merge).
		sort.Float64s(a.sums)
		for _, v := range a.sums {
			hv.Sum += v
		}
		hv.sumTerms = a.sums
		out.Histograms = append(out.Histograms, hv)
	}
	sort.Slice(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	sort.Slice(out.Gauges, func(i, j int) bool { return out.Gauges[i].Name < out.Gauges[j].Name })
	sort.Slice(out.Histograms, func(i, j int) bool { return out.Histograms[i].Name < out.Histograms[j].Name })
	return out
}
