package telemetry

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"faultyrank/internal/bincodec"
	"faultyrank/internal/bincodec/bincodectest"
)

// TestJournalRecordSnapshot: events come back oldest-first with their
// components, kinds and ordered attrs intact, and the snapshot carries
// the server label and wall-clock base.
func TestJournalRecordSnapshot(t *testing.T) {
	j := NewJournal(16)
	j.SetServer("ost1")
	j.Record("wire", "dial", "server", "ost1", "retries", "2")
	j.Record("scanner", "scan-start")
	j.Record("scanner", "scan-done", "inodes", "42", "dangling") // odd kv: dangling key

	s := j.Snapshot()
	if s.Server != "ost1" {
		t.Fatalf("server %q", s.Server)
	}
	if s.Base == 0 {
		t.Fatal("zero base")
	}
	if s.Dropped != 0 || len(s.Events) != 3 {
		t.Fatalf("dropped %d events %d", s.Dropped, len(s.Events))
	}
	e := s.Events[0]
	if e.Component != "wire" || e.Kind != "dial" || e.Attr("server") != "ost1" || e.Attr("retries") != "2" {
		t.Fatalf("event 0: %+v", e)
	}
	if got := s.Events[2].Attr("dangling"); got != "" {
		t.Fatalf("dangling key value %q", got)
	}
	if len(s.Events[2].Attrs) != 2 {
		t.Fatalf("odd kv attrs: %+v", s.Events[2].Attrs)
	}
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].T < s.Events[i-1].T {
			t.Fatalf("events out of time order at %d", i)
		}
	}
	if w := s.Wall(e); w != s.Base+int64(e.T) {
		t.Fatalf("Wall %d", w)
	}
}

// TestJournalRingBounds: the ring overwrites oldest-first and counts
// the overwrites, so the surviving window is the most recent history.
func TestJournalRingBounds(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Record("c", "k", "i", string(rune('0'+i)))
	}
	s := j.Snapshot()
	if s.Dropped != 6 || j.Dropped() != 6 {
		t.Fatalf("dropped %d / %d, want 6", s.Dropped, j.Dropped())
	}
	if len(s.Events) != 4 {
		t.Fatalf("%d events, want 4", len(s.Events))
	}
	for i, e := range s.Events {
		if want := string(rune('0' + 6 + i)); e.Attr("i") != want {
			t.Fatalf("event %d is %q, want %q", i, e.Attr("i"), want)
		}
		if i > 0 && e.T < s.Events[i-1].T {
			t.Fatalf("wrapped events out of time order at %d", i)
		}
	}
}

// TestJournalGrowsOnDemand: the capacity is a limit, not an allocation.
// A default journal that records ten events costs at most 4 KiB (a
// preallocated ring was 256 KiB), and a ring grown by append still wraps
// at its limit — 5 here, where append's capacity has reached 8 — with
// the overwrites counted.
func TestJournalGrowsOnDemand(t *testing.T) {
	const journals = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < journals; i++ {
		j := NewJournal(0)
		for k := 0; k < 10; k++ {
			j.Record("wire", "dial-retry", "server", "ost0")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / journals; per > 4<<10 {
		t.Errorf("a default journal holding ten events allocated %d bytes, want <= 4 KiB", per)
	}

	j := NewJournal(5)
	for i := 0; i < 12; i++ {
		j.Record("c", "k", "i", strconv.Itoa(i))
	}
	s := j.Snapshot()
	if len(s.Events) != 5 || s.Dropped != 7 {
		t.Fatalf("%d events, %d dropped; want 5 and 7", len(s.Events), s.Dropped)
	}
	for i, e := range s.Events {
		if want := strconv.Itoa(7 + i); e.Attr("i") != want {
			t.Fatalf("event %d is %q, want %q", i, e.Attr("i"), want)
		}
	}
}

// TestJournalNilTolerant: every method on a nil journal and nil sampler
// is a no-op, like the Registry's instruments.
func TestJournalNilTolerant(t *testing.T) {
	var j *Journal
	j.SetServer("x")
	j.Record("c", "k", "a", "b")
	if j.Dropped() != 0 {
		t.Fatal("nil Dropped")
	}
	if s := j.Snapshot(); s.Server != "" || len(s.Events) != 0 {
		t.Fatalf("nil snapshot: %+v", s)
	}
	sm := j.Sampler(8)
	if sm != nil {
		t.Fatal("nil journal must hand out a nil sampler")
	}
	sm.Record("c", "k")
}

// TestJournalConcurrent exercises concurrent recorders and snapshotters
// under -race: no event is torn and snapshots stay time-ordered.
func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j.Record("c", "k", "g", "x")
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s := j.Snapshot()
			for k := 1; k < len(s.Events); k++ {
				if s.Events[k].T < s.Events[k-1].T {
					t.Error("concurrent snapshot out of time order")
					return
				}
			}
		}
	}()
	wg.Wait()
	s := j.Snapshot()
	if len(s.Events) != 128 || s.Dropped != 8*200-128 {
		t.Fatalf("events %d dropped %d", len(s.Events), s.Dropped)
	}
}

// TestSamplerEvery: one record per N calls, first call always recorded.
func TestSamplerEvery(t *testing.T) {
	j := NewJournal(64)
	sm := j.Sampler(3)
	for i := 0; i < 10; i++ {
		sm.Record("scanner", "chunk")
	}
	if n := len(j.Snapshot().Events); n != 4 { // calls 1, 4, 7, 10
		t.Fatalf("%d sampled events, want 4", n)
	}
	all := j.Sampler(0) // <1 clamps to every call
	all.Record("c", "k")
	if n := len(j.Snapshot().Events); n != 5 {
		t.Fatalf("%d events after every=0 sampler, want 5", n)
	}
}

// journalFixture builds a deterministic two-section snapshot set.
func journalFixture() []JournalSnapshot {
	return []JournalSnapshot{
		{
			Server: "ost1", Base: 1_700_000_000_000_000_000, Dropped: 3,
			Events: []Event{
				{T: 10, Component: "scanner", Kind: "scan-start"},
				{T: 25, Component: "wire", Kind: "slow-frame", Attrs: []Attr{{K: "seconds", V: "0.4"}}},
				{T: 25, Component: "scanner", Kind: "scan-done", Attrs: []Attr{{K: "inodes", V: "9"}, {K: "", V: "odd"}}},
			},
		},
		{
			Server: "coordinator", Base: 1_700_000_000_000_000_500,
			Events: []Event{{T: 1, Component: "checker", Kind: "run"}},
		},
	}
}

// TestJournalCodecRoundTrip: encode → decode → byte-identical re-encode,
// with sections canonicalised by server and all fields preserved.
func TestJournalCodecRoundTrip(t *testing.T) {
	blob := EncodeJournal(journalFixture())
	dec, err := DecodeJournal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 2 || dec[0].Server != "coordinator" || dec[1].Server != "ost1" {
		t.Fatalf("decoded sections: %+v", dec)
	}
	if dec[1].Dropped != 3 || len(dec[1].Events) != 3 {
		t.Fatalf("ost1 section: %+v", dec[1])
	}
	if got := dec[1].Events[1].Attr("seconds"); got != "0.4" {
		t.Fatalf("attr: %q", got)
	}
	if !bytes.Equal(EncodeJournal(dec), blob) {
		t.Fatal("re-encode not byte-identical")
	}

	// The empty container is valid and canonical too.
	empty := EncodeJournal(nil)
	dec, err = DecodeJournal(empty)
	if err != nil || len(dec) != 0 {
		t.Fatalf("empty blob: %v %v", dec, err)
	}
}

// TestJournalCodecLiveRoundTrip: a real journal's snapshot survives the
// codec byte-identically.
func TestJournalCodecLiveRoundTrip(t *testing.T) {
	j := NewJournal(8)
	j.SetServer("mdt0")
	j.Record("agg", "merge-done", "vertices", "100")
	j.Record("rank", "iteration", "i", "1", "delta", "0.5")
	blob := EncodeJournal([]JournalSnapshot{j.Snapshot()})
	dec, err := DecodeJournal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(EncodeJournal(dec), blob) {
		t.Fatal("re-encode not byte-identical")
	}
}

// TestJournalCodecRejects: hostile or non-canonical blobs fail loudly
// instead of misparsing.
func TestJournalCodecRejects(t *testing.T) {
	good := EncodeJournal(journalFixture())

	cases := []struct {
		name string
		blob []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"bad magic", append([]byte("FRXX"), good[4:]...), "magic"},
		{"bad version", func() []byte {
			b := append([]byte(nil), good...)
			b[4] = 99
			return b
		}(), "version"},
		{"trailing bytes", append(append([]byte(nil), good...), 0), "trailing"},
		{"truncated", good[:len(good)-3], "truncated"},
		{"implausible sections", func() []byte {
			b := []byte(journalMagic)
			b = append(b, JournalCodecVersion)
			return le.AppendUint32(b, 0xFFFFFF)
		}(), "implausible"},
		{"implausible events", func() []byte {
			b := []byte(journalMagic)
			b = append(b, JournalCodecVersion)
			b = le.AppendUint32(b, 1)
			b = bincodec.AppendStr16(b, "s")
			b = le.AppendUint64(b, 0)
			b = le.AppendUint64(b, 0)
			b = le.AppendUint32(b, 0xFFFFFF) // event count far beyond payload
			return append(b, make([]byte, 64)...)
		}(), "implausible"},
		{"sections out of order", func() []byte {
			secs := []JournalSnapshot{{Server: "b"}, {Server: "a"}}
			b := EncodeJournal(secs) // canonicalises...
			// ...so corrupt the order by swapping the encoded names.
			return bytes.Replace(bytes.Replace(bytes.Replace(b,
				[]byte("a"), []byte("z"), 1), []byte("b"), []byte("a"), 1), []byte("z"), []byte("b"), 1)
		}(), "canonical order"},
		{"events out of order", func() []byte {
			b := []byte(journalMagic)
			b = append(b, JournalCodecVersion)
			b = le.AppendUint32(b, 1)
			b = bincodec.AppendStr16(b, "s")
			b = le.AppendUint64(b, 0)
			b = le.AppendUint64(b, 0)
			b = le.AppendUint32(b, 2)
			for _, ts := range []uint64{50, 10} { // descending T
				b = le.AppendUint64(b, ts)
				b = bincodec.AppendStr16(b, "c")
				b = bincodec.AppendStr16(b, "k")
				b = append(b, 0)
			}
			return b
		}(), "time order"},
	}
	for _, tc := range cases {
		if _, err := DecodeJournal(tc.blob); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestWriteReadJournalFile: the .frjr dump round-trips through disk.
func TestWriteReadJournalFile(t *testing.T) {
	path := t.TempDir() + "/journal.frjr"
	want := journalFixture()
	if err := WriteJournalFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Server != "coordinator" || len(got[1].Events) != 3 {
		t.Fatalf("file round-trip: %+v", got)
	}
}

// FuzzDecodeJournal drives the FRJR decoder with hostile bytes. The
// invariant is bijectivity: any payload either fails to decode, or
// decodes to sections whose re-encoding is byte-identical to the input
// and decodes again identically. Counts are bounded before allocation,
// so implausible headers fail fast instead of OOMing.
func FuzzDecodeJournal(f *testing.F) {
	f.Add(EncodeJournal(journalFixture()))
	f.Add(EncodeJournal(nil))
	j := NewJournal(4)
	j.SetServer("ost0")
	for i := 0; i < 6; i++ {
		j.Record("wire", "dial-retry", "server", "ost0")
	}
	f.Add(EncodeJournal([]JournalSnapshot{j.Snapshot()}))
	// Implausible section count.
	hostile := []byte(journalMagic)
	hostile = append(hostile, JournalCodecVersion)
	f.Add(le.AppendUint32(hostile, 0xFFFFFFFF))

	f.Fuzz(func(t *testing.T, b []byte) {
		bincodectest.RoundTrip(t, b, DecodeJournal, EncodeJournal)
	})
}

// TestJournalTimeMonotonic: offsets derive from the monotonic clock —
// a recorded event's T is never negative and grows with real time.
func TestJournalTimeMonotonic(t *testing.T) {
	j := NewJournal(4)
	j.Record("c", "a")
	time.Sleep(2 * time.Millisecond)
	j.Record("c", "b")
	s := j.Snapshot()
	if s.Events[0].T < 0 || s.Events[1].T < s.Events[0].T+time.Millisecond {
		t.Fatalf("timestamps: %v %v", s.Events[0].T, s.Events[1].T)
	}
}
