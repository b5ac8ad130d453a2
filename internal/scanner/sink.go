package scanner

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/par"
)

// DefaultChunkEntries is the default bound on a chunk's total entry
// count (objects + edges + issues). Large enough to amortise framing,
// small enough that aggregation and transfer overlap the scan instead
// of waiting for a whole server's partial graph.
const DefaultChunkEntries = 8192

// Chunk is one bounded batch of scan output. A server's scan emits an
// ordered sequence of chunks (Seq 0, 1, ...) ending with exactly one
// Final chunk; concatenating the sequence reproduces the server's
// Partial byte for byte, because chunks are released in block-group
// order regardless of how the group sweep was parallelised.
//
// Objects and Edges are record sections in their wire form, so a chunk
// is shipped, received and merged as the bytes the scanner appended. An
// edge's source ordinal counts the objects of the whole stream, not of
// the chunk: it may name an object an earlier chunk carried, never one
// a later chunk will.
type Chunk struct {
	ServerLabel string
	// Seq is the chunk's position in the server's stream.
	Seq int
	// Final marks the stream's last chunk (possibly empty).
	Final bool

	Objects Objects
	Edges   Edges
	Issues  []Issue
	// Stats holds this chunk's deltas; summing over a stream yields the
	// server's scan totals.
	Stats Stats
}

// Entries returns the chunk's total entry count.
func (c *Chunk) Entries() int { return c.Objects.Len() + c.Edges.Len() + len(c.Issues) }

// Sink consumes a scan's chunk stream. Emit is called sequentially per
// server stream; a sink shared by several concurrent scans must
// serialise internally (agg.Builder does).
//
// Ownership: once Emit returns, the chunk and the bytes of its sections
// belong to the sink. The emitter hands over freshly allocated sections
// and must not touch them again (chunkEmitter.flush does so, and the
// wire collector hands over sections aliasing a frame buffer of their
// own); a sink may retain the chunk without copying, but a sink that
// retains it must not mutate it — the same chunk may be replayed into
// other sinks. A Borrower opts out of the first half of this rule.
type Sink interface {
	Emit(*Chunk) error
}

// Borrower is a Sink that is finished with a chunk when Emit returns:
// it encodes, counts or copies what it needs and keeps no reference to
// the chunk or its slices. The scanner lends such a sink its scratch
// chunk and refills it for the next one, instead of handing over an
// exact-size copy. wire.ChunkStream is one; a sink that retains chunks
// (agg.Builder, PartialSink, a recorder) must not be.
type Borrower interface {
	Sink
	// BorrowsChunks marks the type; it is never called.
	BorrowsChunks()
}

// PartialSink reassembles a chunk stream into one Partial — the compat
// path that keeps Scan/ScanImage's bulk interface on top of the
// streaming scanner.
type PartialSink struct {
	p Partial
}

// Emit appends one chunk.
func (s *PartialSink) Emit(c *Chunk) error {
	if s.p.ServerLabel == "" {
		s.p.ServerLabel = c.ServerLabel
	}
	s.p.Objects.b = append(s.p.Objects.b, c.Objects.b...)
	s.p.Edges.b = append(s.p.Edges.b, c.Edges.b...)
	s.p.Issues = append(s.p.Issues, c.Issues...)
	s.p.Stats.Add(c.Stats)
	return nil
}

// Partial returns the accumulated partial graph.
func (s *PartialSink) Partial() *Partial { return &s.p }

// chunkEmitter batches scan output into bounded chunks. cur is scratch:
// its sections are refilled for every chunk; flush lends cur itself to a
// Borrower and hands any other sink copies of exactly the filled length.
type chunkEmitter struct {
	label string
	sink  Sink
	lend  bool // sink is a Borrower
	limit int
	seq   int
	// objects counts the object records added so far: the stream
	// ordinal of the next group's first object.
	objects int
	cur     Chunk
	ins     []*Instr
}

func newChunkEmitter(label string, limit int, sink Sink, ins []*Instr) *chunkEmitter {
	if limit <= 0 {
		limit = DefaultChunkEntries
	}
	_, lend := sink.(Borrower)
	return &chunkEmitter{label: label, sink: sink, lend: lend, limit: limit, ins: ins}
}

// grow makes room for n more entries, at least doubling the capacity
// when it must reallocate. The reused buffers of a scan (group buffers,
// the scratch chunk) reach their working size once and stay there;
// append's 1.25x steps would leave four times that size in garbage on
// the way.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, 2*cap(s)-len(s)))
}

// fresh returns a copy of s the sink may own; an empty section stays nil.
func fresh[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

func (e *chunkEmitter) flush(final bool) error {
	e.cur.ServerLabel, e.cur.Seq, e.cur.Final = e.label, e.seq, final
	e.seq++
	for _, in := range e.ins {
		in.chunk()
	}
	c := &e.cur
	if !e.lend {
		own := e.cur
		own.Objects.b, own.Edges.b, own.Issues = fresh(own.Objects.b), fresh(own.Edges.b), fresh(own.Issues)
		c = &own
	}
	err := e.sink.Emit(c)
	e.cur = Chunk{Objects: Objects{e.cur.Objects.b[:0]}, Edges: Edges{e.cur.Edges.b[:0]}, Issues: e.cur.Issues[:0]}
	return err
}

// fill appends one section of a group's output to the matching scratch
// section (*dst is one of e.cur's sections, holding per elements an
// entry), flushing at every chunk boundary it crosses.
func fill[T any](e *chunkEmitter, dst *[]T, src []T, per int) error {
	for len(src) > 0 {
		take := min(len(src), (e.limit-e.cur.Entries())*per)
		*dst = append(grow(*dst, take), src[:take]...)
		src = src[take:]
		if e.cur.Entries() >= e.limit {
			if err := e.flush(false); err != nil {
				return err
			}
		}
	}
	return nil
}

// add appends one group's scan output, splitting at chunk boundaries.
// The group's edges name their sources relative to the group; add
// rebases them, in p, onto the stream's object count.
func (e *chunkEmitter) add(p *Partial) error {
	p.Edges.rebase(uint32(e.objects))
	e.objects += p.Objects.Len()
	if err := fill(e, &e.cur.Objects.b, p.Objects.b, ObjectSize); err != nil {
		return err
	}
	if err := fill(e, &e.cur.Edges.b, p.Edges.b, EdgeSize); err != nil {
		return err
	}
	if err := fill(e, &e.cur.Issues, p.Issues, 1); err != nil {
		return err
	}
	// Stats ride on whichever chunk is open when the group lands; the
	// stream total is what matters.
	e.cur.Stats.Add(p.Stats)
	return nil
}

// ScanImageToSink sweeps one server image and streams its partial graph
// to sink as bounded chunks. Block groups are scanned in parallel
// (workers <= 0 = GOMAXPROCS) but chunks are released in group order,
// so the stream — and therefore everything downstream, including the
// aggregator's GID space — is deterministic. chunkEntries bounds a
// chunk's entry count (<= 0 = DefaultChunkEntries). Exactly one Final
// chunk ends the stream, even for an empty image.
func ScanImageToSink(img *ldiskfs.Image, workers, chunkEntries int, sink Sink) error {
	return ScanImageToSinkInstr(context.Background(), img, workers, chunkEntries, sink)
}

// ScanImageToSinkInstr is ScanImageToSink under a context and with
// instrumentation. The scan stops at the first group boundary after ctx
// is done and returns ctx.Err(), so a checker deadline cancels an
// in-flight sweep instead of letting it ship chunks nobody will
// collect. Each ins's counters (inodes, dirents, edges, parse issues, chunks)
// are updated as groups are released — batched per group, so the
// per-inode sweep stays free of atomics. The cluster path passes two
// instruments, the run-wide one and the per-server set its manifest
// section snapshots; none (or nil entries) observe nothing.
func ScanImageToSinkInstr(ctx context.Context, img *ldiskfs.Image, workers, chunkEntries int, sink Sink, ins ...*Instr) error {
	_, err := sweep(ctx, img, workers, newChunkEmitter(img.Label(), chunkEntries, sink, ins))
	return err
}

// groupBuf is one block group's scan output, recycled through the
// sweep's ring.
type groupBuf struct {
	Partial
	err error
}

// sweep scans img into em and reports how many inodes the workers
// scanned, released or not. Block groups are handed out in ascending
// order from one counter, to workers that already hold a buffer from a
// fixed ring of 2 x workers: the groups in flight are therefore always
// the lowest unreleased ones, each owning a distinct ring slot, and a
// worker never waits for anything but a buffer. The caller's goroutine
// releases groups in order into em and returns their buffers. Any exit
// — end of image, sink error, cancellation — raises stop, so workers
// finish at most the group they are in, and waits for them.
func sweep(ctx context.Context, img *ldiskfs.Image, workers int, em *chunkEmitter) (swept int64, err error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	groups := img.Groups()
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	workers = max(1, min(workers, groups))
	ring := 2 * workers

	free := make(chan *groupBuf, ring)
	done := make([]chan *groupBuf, ring) // done[g%ring] carries group g
	for i := range done {
		done[i] = make(chan *groupBuf, 1)
		free <- &groupBuf{}
	}
	var next, scanned atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range free {
				g := int(next.Add(1)) - 1
				if g >= groups || stop.Load() {
					return
				}
				b.err = img.InodesInGroup(g, func(n ldiskfs.Inode) error {
					b.Stats.InodesScanned++
					scanInode(n, &b.Partial)
					return nil
				})
				scanned.Add(b.Stats.InodesScanned)
				done[g%ring] <- b
			}
		}()
	}
	defer func() { // on every return below: swept is final only once the workers are gone
		stop.Store(true)
		close(free)
		wg.Wait()
		swept = scanned.Load()
	}()

	for g := 0; g < groups; g++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		b := <-done[g%ring]
		if b.err != nil {
			return 0, fmt.Errorf("scanner: group %d: %w", g, b.err)
		}
		for _, in := range em.ins {
			in.group(&b.Partial)
		}
		if err := em.add(&b.Partial); err != nil {
			return 0, err
		}
		b.Partial = Partial{Objects: Objects{b.Objects.b[:0]}, Edges: Edges{b.Edges.b[:0]}, Issues: b.Issues[:0]}
		free <- b
	}
	return 0, em.flush(true)
}
