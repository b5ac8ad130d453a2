package agg

import (
	"cmp"
	"slices"
	"unsafe"

	"faultyrank/internal/lustre"
)

// seqIndex is the cold merge's GID index. Lustre hands out object ids in
// increasing order within a sequence, so a scanned cluster's FIDs fill a
// few sequences almost densely. For each such sequence the index keeps a
// dense run — a []uint32 indexed by Oid-base, holding id+1 (0 = absent)
// — and resolves a FID there with one load, no FID hash and no key
// compare. Every other FID (Ver != 0, a sequence without a run, an Oid
// outside its run's span: phantoms and corrupted identities) lives in
// the fallback fidTable.
// Which tier holds a FID is a pure function of the FID and the run set,
// so get looks in exactly one place.
//
// Both tiers append to one id -> FID slice, tab.fids, so ids are
// assigned in first-intern order whichever tier a FID lands in: the
// merge's GID space does not depend on the index.
//
// get never writes, so any number of goroutines may call it while no
// intern is in flight — the merge's parallel edge translation relies on
// that.
type seqIndex struct {
	// tab is the fallback tier; tab.fids is the whole id -> FID table.
	tab  fidTable
	runs []seqRun
	// bySeq maps a Seq to its run: an open-addressed table of run
	// indexes (k+1, 0 = empty). maxSeqRuns keeps its load <= 1/2, so a
	// probe always terminates.
	bySeq [seqRunSlots]uint8
}

// seqRun is one dense run: ids[oid-base] is id+1 of FID {seq, oid, 0},
// or 0 when that FID has no id yet.
type seqRun struct {
	seq  uint64
	base uint32
	ids  []uint32
}

const (
	// maxSeqRuns caps the dense tier's runs.
	maxSeqRuns = 64
	// minRunObjects is the object count a sequence needs for a run.
	minRunObjects = 64
	// seqRunSlots is bySeq's size: twice maxSeqRuns.
	seqRunBits  = 7
	seqRunSlots = 1 << seqRunBits
	// seqStatSlots bounds the pre-pass: it follows the first
	// seqStatSlots/2 sequences it meets, and objects of any later one go
	// to the fallback. Fixed, so the pre-pass allocates nothing however
	// many sequences the input holds.
	seqStatBits  = 9
	seqStatSlots = 1 << seqStatBits
)

// seqHash spreads a Seq over a table of 1<<bits slots.
func seqHash(seq uint64, bits uint) uint64 { return seq * 0x9E3779B97F4A7C15 >> (64 - bits) }

// seqStat is the pre-pass tally of one sequence's Ver == 0 objects:
// how many there are (duplicate claims included) and their Oid range.
type seqStat struct {
	seq    uint64
	count  int
	lo, hi uint32
}

// span is the number of Oids from lo to hi.
func (s *seqStat) span() int { return int(s.hi-s.lo) + 1 }

// seqStats is the pre-pass's fixed open-addressed table of tallies; a
// slot with count 0 is empty.
type seqStats struct {
	slots [seqStatSlots]seqStat
	n     int
}

// find returns seq's tally, claiming a slot for a new sequence, or nil
// once the table follows as many sequences as it may.
func (t *seqStats) find(seq uint64) *seqStat {
	for i := seqHash(seq, seqStatBits); ; i = (i + 1) & (seqStatSlots - 1) {
		s := &t.slots[i]
		if s.count > 0 && s.seq == seq {
			return s
		}
		if s.count == 0 {
			if 2*t.n >= seqStatSlots {
				return nil
			}
			t.n++
			s.seq = seq
			return s
		}
	}
}

// newSeqIndex builds the index for the canonical stream in segs, which
// holds nObj objects. A deterministic pre-pass tallies each sequence;
// one with at least minRunObjects objects whose Oid span is at most
// twice its count gets a dense run — at most maxSeqRuns of them, the
// most populous first — so a run costs at most 8 bytes per object, and
// the hash slots it replaces cost at least that at load <= 1/2. The
// fallback table is sized for the objects no run holds. When the two
// tiers together would take more bytes than the one table sized for
// every object, the index keeps no runs: it is then that table.
func newSeqIndex(segs []segment, nObj int) *seqIndex {
	var stats seqStats
	var st *seqStat
	for _, s := range segs {
		for i := range s.objects.Len() {
			f := s.objects.FID(i)
			if f.Ver != 0 {
				continue
			}
			// Objects of one sequence come in long stretches, so most
			// take the first branch and no lookup.
			if st == nil || st.seq != f.Seq {
				if st = stats.find(f.Seq); st == nil {
					continue
				}
				if st.count == 0 {
					st.lo, st.hi = f.Oid, f.Oid
				}
			}
			st.lo, st.hi = min(st.lo, f.Oid), max(st.hi, f.Oid)
			st.count++
		}
	}

	var buf [seqStatSlots / 2]seqStat
	runs := buf[:0]
	for i := range stats.slots {
		if s := &stats.slots[i]; s.count >= minRunObjects && s.span() <= 2*s.count {
			runs = append(runs, *s)
		}
	}
	slices.SortFunc(runs, func(a, b seqStat) int {
		return cmp.Or(cmp.Compare(b.count, a.count), cmp.Compare(a.seq, b.seq))
	})
	runs = runs[:min(len(runs), maxSeqRuns)]
	dense, held := 0, 0
	for i := range runs {
		dense += runs[i].span()
		held += runs[i].count
	}
	if 4*dense+len(runs)*int(unsafe.Sizeof(seqRun{}))+4*fidSlots(nObj-held) > 4*fidSlots(nObj) {
		runs, dense, held = nil, 0, 0
	}

	x := &seqIndex{tab: fidTable{fids: make([]lustre.FID, 0, nObj), slots: make([]uint32, fidSlots(nObj-held))}}
	if len(runs) == 0 {
		return x
	}
	x.runs = make([]seqRun, len(runs))
	ids := make([]uint32, dense)
	for k := range runs {
		s := &runs[k]
		n := s.span()
		x.runs[k] = seqRun{seq: s.seq, base: s.lo, ids: ids[:n:n]}
		ids = ids[n:]
		i := seqHash(s.seq, seqRunBits)
		for x.bySeq[i] != 0 {
			i = (i + 1) & (seqRunSlots - 1)
		}
		x.bySeq[i] = uint8(k + 1)
	}
	return x
}

// slot returns the dense-tier slot of f, nil when f belongs to the
// fallback.
func (x *seqIndex) slot(f lustre.FID) *uint32 {
	if f.Ver != 0 {
		return nil
	}
	for i := seqHash(f.Seq, seqRunBits); ; i = (i + 1) & (seqRunSlots - 1) {
		k := x.bySeq[i]
		if k == 0 {
			return nil
		}
		if r := &x.runs[k-1]; r.seq == f.Seq {
			if o := f.Oid - r.base; o < uint32(len(r.ids)) {
				return &r.ids[o]
			}
			return nil
		}
	}
}

// get resolves a FID to its id. A nil index holds nothing.
func (x *seqIndex) get(f lustre.FID) (uint32, bool) {
	if x == nil {
		return 0, false
	}
	if s := x.slot(f); s != nil {
		return *s - 1, *s != 0
	}
	return x.tab.get(f)
}

// intern resolves a FID to its id, assigning the next id when the FID
// is new.
func (x *seqIndex) intern(f lustre.FID) uint32 {
	if s := x.slot(f); s != nil {
		if *s == 0 {
			x.tab.fids = append(x.tab.fids, f)
			*s = uint32(len(x.tab.fids))
		}
		return *s - 1
	}
	id, _ := x.tab.intern(f)
	return id
}
