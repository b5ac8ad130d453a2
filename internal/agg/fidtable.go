package agg

import "faultyrank/internal/lustre"

// fidTable is the package's hashed FID index. It interns FIDs onto
// dense ids in first-insertion order: fids is id -> FID and doubles as
// the key store, slots is an open-addressed, linearly probed index into
// it. One occurrence costs one hash and (at load <= 1/2) about 1.4
// probes, no allocation and no per-occurrence record. The DeltaBuilder's
// IID space and the snapshot restore index every id through it; the
// merge's seqIndex (seqindex.go) indexes only the FIDs its dense tier
// does not hold, and appends the others to fids without a slot.
//
// get never writes, so any number of goroutines may call it while no
// intern is in flight — the merge's parallel edge translation relies on
// that.
type fidTable struct {
	fids []lustre.FID
	// slots[i] is 0 for an empty slot, else id+1. Its length is a power
	// of two and at least 2*n, so a probe always terminates.
	slots []uint32
	// n counts the ids slots holds: len(fids), less any id a seqIndex
	// appended without a slot.
	n int
}

// minFIDSlots is the slot count of a table built without a size hint.
const minFIDSlots = 8

// newFIDTable sizes the table so that hint FIDs intern without growth.
func newFIDTable(hint int) *fidTable {
	return &fidTable{fids: make([]lustre.FID, 0, hint), slots: make([]uint32, fidSlots(hint))}
}

// fidSlots is the slot count that holds n ids at load <= 1/2.
func fidSlots(n int) int {
	s := minFIDSlots
	for s < 2*n {
		s <<= 1
	}
	return s
}

// hashFID is a splitmix64-style mix of all 128 FID bits. It must stay a
// pure function of the FID: the table's probe sequence derives from it.
func hashFID(f lustre.FID) uint64 {
	h := f.Seq*0x9E3779B97F4A7C15 + uint64(f.Oid)*0xBF58476D1CE4E5B9 + uint64(f.Ver)
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// get resolves a FID to its id. A nil table holds nothing.
func (t *fidTable) get(f lustre.FID) (uint32, bool) {
	if t == nil {
		return 0, false
	}
	mask := uint64(len(t.slots) - 1)
	for i := hashFID(f) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return 0, false
		}
		if t.fids[s-1] == f {
			return s - 1, true
		}
	}
}

// intern resolves a FID to its id, assigning the next dense id when the
// FID is new (added reports which). The table doubles once it is more
// than half full.
func (t *fidTable) intern(f lustre.FID) (id uint32, added bool) {
	mask := uint64(len(t.slots) - 1)
	i := hashFID(f) & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if id := t.slots[i] - 1; t.fids[id] == f {
			return id, false
		}
	}
	t.fids = append(t.fids, f)
	t.slots[i] = uint32(len(t.fids))
	if t.n++; 2*t.n > len(t.slots) {
		t.grow()
	}
	return uint32(len(t.fids) - 1), true
}

// grow doubles the slot array and re-inserts every id the old one
// held; the keys stay where they are.
func (t *fidTable) grow() {
	slots := make([]uint32, 2*len(t.slots))
	mask := uint64(len(slots) - 1)
	for _, s := range t.slots {
		if s == 0 {
			continue
		}
		i := hashFID(t.fids[s-1]) & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = s
	}
	t.slots = slots
}
