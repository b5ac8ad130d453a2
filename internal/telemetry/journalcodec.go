package telemetry

import (
	"os"
	"sort"
	"time"

	"faultyrank/internal/bincodec"
)

// FRJR v1: the versioned canonical binary codec for journal snapshots —
// the on-disk format of the journal.frjr files faultyrank/frhealthd dump
// and frtrace renders. One blob holds any number of sections (one per
// journal), so per-server journals merge by concatenation.
//
// Layout (all integers little-endian):
//
//	"FRJR" | u8 version
//	u32 sectionCount
//	section × {
//	  str16 server | u64 base | u64 dropped | u32 eventCount
//	  event × { u64 t | str16 component | str16 kind
//	            | u8 attrCount | attr × { str16 k | str16 v } }
//	}
//
// Same invariants as the FRTM codec: versioned (mixed builds fail
// loudly), bounded (counts are sanity-checked against the remaining
// payload before any allocation), and canonical — sections sorted by
// server, events in non-decreasing T — enforced at decode, so a blob
// either fails to decode or re-encodes byte-identically (the
// FuzzDecodeJournal target leans on this).

// JournalCodecVersion identifies the FRJR layout. Bump on any
// incompatible change.
const JournalCodecVersion = 1

const journalMagic = "FRJR"

var journalFormat = bincodec.Format{Name: "telemetry: journal"}

// Minimum encoded sizes, the allocation bounds for hostile counts.
const (
	journalMinSection = 2 + 8 + 8 + 4 // empty server, no events
	journalMinEvent   = 8 + 2 + 2 + 1 // empty names, no attrs
	journalMinAttr    = 2 + 2         // empty key and value
)

// EncodeJournal renders the sections as one FRJR blob. Sections are
// canonicalised first — stably sorted by server (events inside a
// section are already time-sorted by construction; Snapshot guarantees
// it, and decode enforces it), so equal inputs always produce identical
// bytes.
func EncodeJournal(sections []JournalSnapshot) []byte {
	ss := append([]JournalSnapshot(nil), sections...)
	sort.SliceStable(ss, func(i, j int) bool { return ss[i].Server < ss[j].Server })

	b := append([]byte(journalMagic), JournalCodecVersion)
	b = le.AppendUint32(b, uint32(len(ss)))
	for _, s := range ss {
		b = bincodec.AppendStr16(b, s.Server)
		b = le.AppendUint64(b, uint64(s.Base))
		b = le.AppendUint64(b, uint64(s.Dropped))
		b = le.AppendUint32(b, uint32(len(s.Events)))
		for _, e := range s.Events {
			b = le.AppendUint64(b, uint64(e.T))
			b = bincodec.AppendStr16(b, e.Component)
			b = bincodec.AppendStr16(b, e.Kind)
			if len(e.Attrs) > 255 {
				e.Attrs = e.Attrs[:255]
			}
			b = append(b, byte(len(e.Attrs)))
			for _, a := range e.Attrs {
				b = bincodec.AppendStr16(b, a.K)
				b = bincodec.AppendStr16(b, a.V)
			}
		}
	}
	return b
}

// DecodeJournal parses an FRJR blob, enforcing the canonical form:
// sections in non-descending server order, events in non-decreasing T.
// Counts are bounded against the payload before allocation.
func DecodeJournal(b []byte) ([]JournalSnapshot, error) {
	d := bincodec.NewReader(&journalFormat, b)
	d.Header(journalMagic, JournalCodecVersion)

	nS := d.Count(uint64(d.U32()), journalMinSection)
	var out []JournalSnapshot
	for si := 0; si < nS && d.Err() == nil; si++ {
		var s JournalSnapshot
		s.Server = d.Str16()
		s.Base = int64(d.U64())
		s.Dropped = int64(d.U64())
		if si > 0 && s.Server < out[si-1].Server {
			d.Failf("sections not in canonical order at %q", s.Server)
		}
		nE := d.Count(uint64(d.U32()), journalMinEvent)
		if nE > 0 {
			s.Events = make([]Event, 0, nE)
		}
		for ei := 0; ei < nE && d.Err() == nil; ei++ {
			var e Event
			e.T = time.Duration(d.U64())
			e.Component = d.Str16()
			e.Kind = d.Str16()
			if ei > 0 && e.T < s.Events[ei-1].T {
				d.Failf("events not in time order in %q", s.Server)
			}
			nA := d.Count(uint64(d.U8()), journalMinAttr)
			if nA > 0 {
				e.Attrs = make([]Attr, 0, nA)
			}
			for ai := 0; ai < nA && d.Err() == nil; ai++ {
				e.Attrs = append(e.Attrs, Attr{K: d.Str16(), V: d.Str16()})
			}
			s.Events = append(s.Events, e)
		}
		out = append(out, s)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteJournalFile atomically writes the sections as an FRJR blob
// (temp file + rename, like WriteJSON).
func WriteJournalFile(path string, sections []JournalSnapshot) error {
	return bincodec.WriteFileAtomic(path, EncodeJournal(sections))
}

// ReadJournalFile reads and decodes an FRJR file.
func ReadJournalFile(path string) ([]JournalSnapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeJournal(b)
}
