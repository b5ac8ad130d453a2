package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file is the package's flight recorder: a race-clean, nil-tolerant,
// bounded ring of typed events. Where the Registry answers "how much",
// the Journal answers "in what order" — the sequence of dials, retries,
// stalls, commits and degrade decisions that led a run to where it
// ended, kept cheap enough to leave on in production.
//
// Design constraints, matching the Registry:
//
//   - Bounded: the ring holds at most its capacity; older events are
//     overwritten and counted in Dropped, so a misbehaving loop can
//     never grow memory — the most recent history (the part that
//     explains a failure) is what survives. The capacity is a limit,
//     not an allocation: the ring grows by append until it reaches it,
//     so a journal that records ten events costs ten events.
//   - Nil-tolerant: every method on a nil *Journal or nil *Sampler is a
//     no-op, so call sites need no conditionals.
//   - Monotonic: event times are offsets from the journal's start on
//     the monotonic clock, taken under the ring lock, so a snapshot's
//     events are always in non-decreasing time order — the property the
//     FRJR codec and frtrace's timeline merge rely on.

// DefaultJournalCap is the ring capacity NewJournal uses for cap <= 0.
// A full ring is 4096 × 64 B = 256 KiB of events plus their attrs:
// enough to hold several rounds of history, small enough to keep one
// per server — and a journal pays for it only as it fills.
const DefaultJournalCap = 4096

// An Attr is one key/value pair on an event. Attrs are an ordered
// slice, not a map: order is preserved through the codec, which is what
// makes decode⇒re-encode byte-identical.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// An Event is one entry in the journal: when (offset from the journal
// epoch on the monotonic clock), which component, what kind of event,
// and a small ordered attribute list.
type Event struct {
	T         time.Duration `json:"t_ns"`
	Component string        `json:"component"`
	Kind      string        `json:"kind"`
	Attrs     []Attr        `json:"attrs,omitempty"`
}

// Attr returns the value of the first attribute named k ("" when
// absent) — the lookup frtrace and the tests use.
func (e Event) Attr(k string) string {
	for _, a := range e.Attrs {
		if a.K == k {
			return a.V
		}
	}
	return ""
}

// A Journal is a bounded ring of events. The zero value is not usable —
// construct with NewJournal — but a nil *Journal is: every method
// no-ops, so an uninstrumented run pays one branch per call site.
type Journal struct {
	start  time.Time // epoch; carries the monotonic reading
	base   int64     // wall-clock UnixNano at start, for cross-journal merge
	server string    // origin label stamped into snapshots

	mu      sync.Mutex
	buf     []Event // ring storage; grows by append to limit, then stays
	limit   int     // ring capacity
	next    int     // index the next event lands at once the ring is full
	dropped int64   // events overwritten since start
}

// NewJournal builds a journal with the given ring capacity
// (cap <= 0 = DefaultJournalCap). The epoch is now.
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	now := time.Now()
	return &Journal{
		start: now,
		base:  now.UnixNano(),
		limit: capacity,
	}
}

// SetServer sets the origin label stamped into snapshots. Call before
// recording begins (it is not synchronised with Snapshot).
func (j *Journal) SetServer(label string) {
	if j == nil {
		return
	}
	j.server = label
}

// Record appends one event. kv is alternating key, value pairs; a
// dangling key gets an empty value. When the ring is full the oldest
// event is overwritten and Dropped incremented.
func (j *Journal) Record(component, kind string, kv ...string) {
	if j == nil {
		return
	}
	var attrs []Attr
	if len(kv) > 0 {
		attrs = make([]Attr, 0, (len(kv)+1)/2)
		for i := 0; i < len(kv); i += 2 {
			a := Attr{K: kv[i]}
			if i+1 < len(kv) {
				a.V = kv[i+1]
			}
			attrs = append(attrs, a)
		}
	}
	j.mu.Lock()
	// The offset is taken under the lock so ring order is time order.
	e := Event{T: time.Since(j.start), Component: component, Kind: kind, Attrs: attrs}
	if len(j.buf) < j.limit {
		j.buf = append(j.buf, e)
	} else {
		j.buf[j.next] = e
		j.next = (j.next + 1) % len(j.buf)
		j.dropped++
	}
	j.mu.Unlock()
}

// Dropped returns the number of events overwritten so far (0 for nil).
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// A JournalSnapshot is a deterministic point-in-time view of one
// journal: the origin server, the wall-clock epoch (UnixNano) that
// anchors event offsets for cross-server merging, the overwrite count,
// and the surviving events in non-decreasing T order.
type JournalSnapshot struct {
	Server  string  `json:"server,omitempty"`
	Base    int64   `json:"base_unix_nano"`
	Dropped int64   `json:"dropped,omitempty"`
	Events  []Event `json:"events"`
}

// Wall returns the absolute wall-clock time of e in UnixNano, derived
// from the snapshot's epoch.
func (s JournalSnapshot) Wall(e Event) int64 { return s.Base + int64(e.T) }

// Snapshot captures the journal's current state: events oldest-first.
// A nil journal yields the zero snapshot.
func (j *Journal) Snapshot() JournalSnapshot {
	if j == nil {
		return JournalSnapshot{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JournalSnapshot{Server: j.server, Base: j.base, Dropped: j.dropped}
	if len(j.buf) == 0 {
		return s
	}
	s.Events = make([]Event, 0, len(j.buf))
	// next is where the oldest surviving event sits once the ring wraps
	// (0, the buffer head, before that).
	s.Events = append(s.Events, j.buf[j.next:]...)
	s.Events = append(s.Events, j.buf[:j.next]...)
	return s
}

// A Sampler thins a hot-path event stream: it records every Nth call
// (the first call always records, so short runs still leave a trace).
// The counter is atomic, so concurrent callers race only on which of
// them records — never on the journal itself. Nil-tolerant like its
// journal.
type Sampler struct {
	j     *Journal
	every uint64
	n     atomic.Uint64
}

// Sampler returns a sampler over j recording one event per every calls
// (every <= 1 records all). A nil journal yields a nil sampler.
func (j *Journal) Sampler(every int) *Sampler {
	if j == nil {
		return nil
	}
	if every < 1 {
		every = 1
	}
	return &Sampler{j: j, every: uint64(every)}
}

// Record counts one call and, on every Nth, records the event.
func (s *Sampler) Record(component, kind string, kv ...string) {
	if s == nil {
		return
	}
	if (s.n.Add(1)-1)%s.every != 0 {
		return
	}
	s.j.Record(component, kind, kv...)
}
