package scanner

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

// collectSink records every emitted chunk.
type collectSink struct {
	chunks []*Chunk
}

func (s *collectSink) Emit(c *Chunk) error {
	// Copy: the emitter recycles its scratch chunk only for a Borrower,
	// but the sink contract should not depend on that.
	cc := *c
	s.chunks = append(s.chunks, &cc)
	return nil
}

func TestScanImageToSinkReassemblesPartial(t *testing.T) {
	c := buildCluster(t)
	want, err := ScanImage(c.MDT.Img, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunkSize := range []int{1, 7, 100, DefaultChunkEntries} {
		var sink collectSink
		if err := ScanImageToSink(c.MDT.Img, 0, chunkSize, &sink); err != nil {
			t.Fatal(err)
		}
		var ps PartialSink
		finals := 0
		for i, ch := range sink.chunks {
			if ch.Seq != i {
				t.Fatalf("chunk %d has seq %d", i, ch.Seq)
			}
			if ch.ServerLabel != "mdt0" {
				t.Fatalf("chunk %d label %q", i, ch.ServerLabel)
			}
			if ch.Final {
				finals++
				if i != len(sink.chunks)-1 {
					t.Fatalf("final chunk at %d of %d", i, len(sink.chunks))
				}
			} else if ch.Entries() > chunkSize {
				t.Fatalf("chunkSize %d: non-final chunk holds %d entries", chunkSize, ch.Entries())
			}
			if err := ps.Emit(ch); err != nil {
				t.Fatal(err)
			}
		}
		if finals != 1 {
			t.Fatalf("chunkSize %d: %d final chunks", chunkSize, finals)
		}
		got := ps.Partial()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("chunkSize %d: reassembled partial diverges from bulk scan", chunkSize)
		}
		// Streamed straight in, the sink is lent the scratch chunk, which
		// the next chunk refills: a partial that kept any of it diverges.
		var lent PartialSink
		if err := ScanImageToSink(c.MDT.Img, 0, chunkSize, &lent); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, lent.Partial()) {
			t.Fatalf("chunkSize %d: partial reassembled from lent chunks diverges from bulk scan", chunkSize)
		}
	}
}

func TestScanImageToSinkDeterministicAcrossWorkers(t *testing.T) {
	c := buildCluster(t)
	var ref collectSink
	if err := ScanImageToSink(c.MDT.Img, 1, 64, &ref); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 16} {
		var got collectSink
		if err := ScanImageToSink(c.MDT.Img, w, 64, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.chunks, got.chunks) {
			t.Fatalf("workers=%d: chunk stream diverges from single-threaded scan", w)
		}
	}
}

// errSink fails the stream after a fixed number of chunks.
type errSink struct {
	after int
	n     int
}

var errSinkBoom = errors.New("sink full")

func (s *errSink) Emit(*Chunk) error {
	s.n++
	if s.n > s.after {
		return errSinkBoom
	}
	return nil
}

func TestScanImageToSinkPropagatesSinkError(t *testing.T) {
	c := buildCluster(t)
	err := ScanImageToSink(c.MDT.Img, 0, 4, &errSink{after: 1})
	if !errors.Is(err, errSinkBoom) {
		t.Fatalf("err = %v, want sink error", err)
	}
}

// borrowSink is a Borrower: it copies each chunk it is lent before Emit
// returns, and notes the pointer it was lent.
type borrowSink struct {
	copies []*Chunk
	lent   []*Chunk
}

func (s *borrowSink) Emit(c *Chunk) error {
	cp := *c
	cp.Objects.b, cp.Edges.b, cp.Issues = fresh(c.Objects.b), fresh(c.Edges.b), fresh(c.Issues)
	s.copies = append(s.copies, &cp)
	s.lent = append(s.lent, c)
	return nil
}

func (*borrowSink) BorrowsChunks() {}

// retainSink keeps every chunk it is handed, as agg.Builder and the
// benchmark's recorder do, and counts the chunks that shared storage
// with the emitter's scratch when they were handed over.
type retainSink struct {
	em      *chunkEmitter
	chunks  []*Chunk
	aliased int
}

func (s *retainSink) Emit(c *Chunk) error {
	s.chunks = append(s.chunks, c)
	if c == &s.em.cur || overlap(spansOf(spansOf(nil, c), &s.em.cur)) {
		s.aliased++
	}
	return nil
}

// memSpan is the storage behind one chunk section, up to its capacity.
type memSpan struct{ lo, hi uintptr }

func spanOf[T any](s []T) memSpan {
	var zero T
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return memSpan{lo, lo + uintptr(cap(s))*unsafe.Sizeof(zero)}
}

// spansOf appends the storage of c's non-empty sections to spans.
func spansOf(spans []memSpan, c *Chunk) []memSpan {
	for _, s := range []memSpan{spanOf(c.Objects.b), spanOf(c.Edges.b), spanOf(c.Issues)} {
		if s.hi > s.lo {
			spans = append(spans, s)
		}
	}
	return spans
}

// overlap reports whether any two spans share a byte.
func overlap(spans []memSpan) bool {
	slices.SortFunc(spans, func(a, b memSpan) int { return cmp.Compare(a.lo, b.lo) })
	var hi uintptr
	for _, s := range spans {
		if s.lo < hi {
			return true
		}
		hi = max(hi, s.hi)
	}
	return false
}

// TestLentChunksMatchRetained holds both halves of the Sink ownership
// rule. A Borrower is lent the emitter's scratch chunk itself, and what
// it sees before Emit returns is DeepEqual to the chunks a retaining
// sink is handed; the retaining sink's chunks share storage neither
// with each other nor with the emitter's scratch, so a scan can never
// overwrite a chunk someone keeps.
func TestLentChunksMatchRetained(t *testing.T) {
	c := wideCluster(t, 1500)
	// Damage some LMAs so the issue section is exercised too.
	for i := 0; i < 1500; i += 97 {
		ent, err := c.Stat(fmt.Sprintf("/d/s%d/f%d", i/500, i))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.MDT.Img.SetXattr(ent.Ino, lustre.XattrLMA, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	for _, img := range []*ldiskfs.Image{c.MDT.Img, c.OSTs[0].Img} {
		for _, size := range []int{7, 256} {
			b := &borrowSink{}
			emB := newChunkEmitter(img.Label(), size, b, nil)
			if _, err := sweep(context.Background(), img, 2, emB); err != nil {
				t.Fatal(err)
			}
			for i, lent := range b.lent {
				if lent != &emB.cur {
					t.Fatalf("%s chunk %d: a Borrower was handed a copy, not the scratch chunk", img.Label(), i)
				}
			}

			r := &retainSink{}
			emR := newChunkEmitter(img.Label(), size, r, nil)
			r.em = emR
			if _, err := sweep(context.Background(), img, 2, emR); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(b.copies, r.chunks) {
				t.Fatalf("%s chunk size %d: the borrowed stream diverges from the retained one", img.Label(), size)
			}
			var kept []memSpan
			for _, ch := range r.chunks {
				kept = spansOf(kept, ch)
			}
			if len(r.chunks) < 3 || r.aliased > 0 || overlap(kept) {
				t.Fatalf("%s chunk size %d: of %d retained chunks %d shared the emitter's scratch, or two share storage",
					img.Label(), size, len(r.chunks), r.aliased)
			}
		}
	}
}

func TestScanImageToSinkEmptyImageEmitsFinal(t *testing.T) {
	c := buildCluster(t)
	// An OST that never received objects still ends its stream.
	var sink collectSink
	if err := ScanImageToSink(c.OSTs[3].Img, 0, 0, &sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.chunks) == 0 || !sink.chunks[len(sink.chunks)-1].Final {
		t.Fatalf("no final chunk: %d chunks", len(sink.chunks))
	}
}
