package telemetry

import "sort"

// This file is the cluster side of the telemetry package: the merge
// semantics that fold per-server snapshots into one cluster view.
// Counters sum, gauges keep the labeled maximum, histograms add
// bucket-wise (union of bounds). Every per-instrument operation is a
// commutative monoid — integer sums, max under a total order on
// (value, label), pointwise bucket sums — and float sums are
// accumulated in canonically sorted order, so the merge of N snapshots
// is permutation-invariant down to the byte of its JSON form (asserted
// by the merge tests and the checker's cluster tests).

// Labeled returns a copy of s with every gauge's origin label set to
// server — the stamp a server's manifest section carries, so a merged
// cluster view can attribute each gauge maximum to the server that
// held it.
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
// snapshots in any order yields byte-identical JSON, because every
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
