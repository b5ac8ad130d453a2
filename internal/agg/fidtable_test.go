package agg

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"faultyrank/internal/lustre"
)

// checkTable interns fids into a table grown from the minimum size and
// into a map oracle, and requires the two to agree on every id, on
// added, on the dense id -> FID order, on lookups of every key and on
// misses.
func checkTable(t *testing.T, fids []lustre.FID, absent []lustre.FID) {
	t.Helper()
	tab := newFIDTable(0)
	if len(tab.slots) != minFIDSlots {
		t.Fatalf("unhinted table has %d slots, want %d", len(tab.slots), minFIDSlots)
	}
	oracle := make(map[lustre.FID]uint32)
	for _, f := range fids {
		want, seen := oracle[f]
		if !seen {
			want = uint32(len(oracle))
			oracle[f] = want
		}
		got, added := tab.intern(f)
		if got != want || added == seen {
			t.Fatalf("intern(%v) = %d,%v, want %d,%v", f, got, added, want, !seen)
		}
		if 2*len(tab.fids) > len(tab.slots) {
			t.Fatalf("load above 1/2: %d FIDs in %d slots", len(tab.fids), len(tab.slots))
		}
	}
	if len(tab.fids) != len(oracle) {
		t.Fatalf("table holds %d FIDs, oracle %d", len(tab.fids), len(oracle))
	}
	for f, want := range oracle {
		if got, ok := tab.get(f); !ok || got != want {
			t.Fatalf("get(%v) = %d,%v, want %d", f, got, ok, want)
		}
		if tab.fids[want] != f {
			t.Fatalf("fids[%d] = %v, want %v", want, tab.fids[want], f)
		}
	}
	for _, f := range absent {
		if _, in := oracle[f]; in {
			continue
		}
		if got, ok := tab.get(f); ok {
			t.Fatalf("get(%v) = %d on a FID never interned", f, got)
		}
	}
}

func TestFIDTableMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	// Heavy duplication, the zero-value FID as an ordinary key, forced
	// growth from 8 slots through several doublings.
	fids := []lustre.FID{{}, {Seq: 1}, {}, {Oid: 1}, {Ver: 1}}
	for i := 0; i < 5000; i++ {
		fids = append(fids, lustre.FID{Seq: uint64(r.Intn(9)), Oid: uint32(r.Intn(700)), Ver: uint32(r.Intn(2))})
	}
	absent := []lustre.FID{{Seq: 99}, {Seq: 1, Oid: 9999}, {Ver: 7}}
	checkTable(t, fids, absent)

	// A nil table (the zero Unified) holds nothing.
	if _, ok := (*fidTable)(nil).get(lustre.FID{}); ok {
		t.Fatal("nil table reports a hit")
	}
	if _, ok := newFIDTable(0).get(lustre.FID{}); ok {
		t.Fatal("empty table reports the zero FID")
	}
}

// TestFIDTableLowBitCollisions: FIDs whose hashes agree in the low 12
// bits all start their probe at one slot in every table of up to 4096
// slots — one long run that growth must carry over intact.
func TestFIDTableLowBitCollisions(t *testing.T) {
	var fids []lustre.FID
	for oid := uint32(0); len(fids) < 600; oid++ {
		if f := (lustre.FID{Seq: 0x200000400, Oid: oid}); hashFID(f)&0xFFF == 0x5A5 {
			fids = append(fids, f)
		}
	}
	checkTable(t, append(fids, fids...), []lustre.FID{{Seq: 0x200000400, Oid: ^uint32(0)}})
}

// TestFIDTableConcurrentGet: lookups never write, so many goroutines may
// share a table once interning is over (run under -race in CI).
func TestFIDTableConcurrentGet(t *testing.T) {
	tab := newFIDTable(0)
	for i := 0; i < 3000; i++ {
		tab.intern(lustre.FID{Seq: 7, Oid: uint32(i)})
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6000; i++ {
				g, ok := tab.get(lustre.FID{Seq: 7, Oid: uint32(i)})
				if ok != (i < 3000) || (ok && g != uint32(i)) {
					t.Errorf("get(oid %d) = %d,%v", i, g, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzFIDTable decodes the input as a FID sequence drawn from a narrow
// space (so repeats are common) and checks the table against the map.
func FuzzFIDTable(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 64)) // the zero FID, repeated
	f.Add([]byte{1, 2, 3, 4, 1, 2, 3, 4, 9, 9, 9, 9, 0, 0, 0, 0, 1, 2, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fids []lustre.FID
		for ; len(data) >= 4; data = data[4:] {
			fids = append(fids, lustre.FID{
				Seq: uint64(data[0]), Oid: uint32(binary.LittleEndian.Uint16(data[1:])), Ver: uint32(data[3] & 1),
			})
		}
		checkTable(t, fids, []lustre.FID{{Seq: 1 << 40}, {Oid: 1 << 20}})
	})
}
