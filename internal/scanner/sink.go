package scanner

import (
	"context"
	"fmt"

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
type Chunk struct {
	ServerLabel string
	// Seq is the chunk's position in the server's stream.
	Seq int
	// Final marks the stream's last chunk (possibly empty).
	Final bool

	Objects []Object
	Edges   []FIDEdge
	Issues  []Issue
	// Stats holds this chunk's deltas; summing over a stream yields the
	// server's scan totals.
	Stats Stats
}

// Entries returns the chunk's total entry count.
func (c *Chunk) Entries() int { return len(c.Objects) + len(c.Edges) + len(c.Issues) }

// Sink consumes a scan's chunk stream. Emit is called sequentially per
// server stream; a sink shared by several concurrent scans must
// serialise internally (agg.Builder does).
//
// Ownership: once Emit returns, the chunk and its slices belong to the
// sink. The emitter hands over freshly allocated slices and must not
// touch them again (chunkEmitter.flush and the wire decoder both do
// so); a sink may retain the chunk without copying, but a sink that
// retains it must not mutate it — the same chunk may be replayed into
// other sinks.
type Sink interface {
	Emit(*Chunk) error
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
	s.p.Objects = append(s.p.Objects, c.Objects...)
	s.p.Edges = append(s.p.Edges, c.Edges...)
	s.p.Issues = append(s.p.Issues, c.Issues...)
	s.p.Stats.InodesScanned += c.Stats.InodesScanned
	s.p.Stats.DirentsRead += c.Stats.DirentsRead
	s.p.Stats.EdgesEmitted += c.Stats.EdgesEmitted
	return nil
}

// Partial returns the accumulated partial graph.
func (s *PartialSink) Partial() *Partial { return &s.p }

// chunkEmitter batches scan output into bounded chunks.
type chunkEmitter struct {
	label string
	sink  Sink
	limit int
	seq   int
	cur   Chunk
	ins   []*Instr
}

func newChunkEmitter(label string, limit int, sink Sink, ins []*Instr) *chunkEmitter {
	if limit <= 0 {
		limit = DefaultChunkEntries
	}
	return &chunkEmitter{label: label, sink: sink, limit: limit, ins: ins}
}

func (e *chunkEmitter) flush(final bool) error {
	c := e.cur
	c.ServerLabel = e.label
	c.Seq = e.seq
	c.Final = final
	e.seq++
	e.cur = Chunk{}
	for _, in := range e.ins {
		in.chunk()
	}
	return e.sink.Emit(&c)
}

func (e *chunkEmitter) maybeFlush() error {
	if e.cur.Entries() >= e.limit {
		return e.flush(false)
	}
	return nil
}

// add appends one group's scan output, splitting at chunk boundaries.
func (e *chunkEmitter) add(p *Partial) error {
	for len(p.Objects) > 0 {
		room := e.limit - e.cur.Entries()
		take := len(p.Objects)
		if take > room {
			take = room
		}
		e.cur.Objects = append(e.cur.Objects, p.Objects[:take]...)
		p.Objects = p.Objects[take:]
		if err := e.maybeFlush(); err != nil {
			return err
		}
	}
	for len(p.Edges) > 0 {
		room := e.limit - e.cur.Entries()
		take := len(p.Edges)
		if take > room {
			take = room
		}
		e.cur.Edges = append(e.cur.Edges, p.Edges[:take]...)
		p.Edges = p.Edges[take:]
		if err := e.maybeFlush(); err != nil {
			return err
		}
	}
	for len(p.Issues) > 0 {
		room := e.limit - e.cur.Entries()
		take := len(p.Issues)
		if take > room {
			take = room
		}
		e.cur.Issues = append(e.cur.Issues, p.Issues[:take]...)
		p.Issues = p.Issues[take:]
		if err := e.maybeFlush(); err != nil {
			return err
		}
	}
	// Stats ride on whichever chunk is open when the group lands; the
	// stream total is what matters.
	e.cur.Stats.InodesScanned += p.Stats.InodesScanned
	e.cur.Stats.DirentsRead += p.Stats.DirentsRead
	e.cur.Stats.EdgesEmitted += p.Stats.EdgesEmitted
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
// instrumentation. The scan stops emitting at the first group boundary
// after ctx is done and returns ctx.Err(), so a checker deadline cancels
// an in-flight sweep instead of letting it ship chunks nobody will
// collect. Each ins's counters (inodes, dirents, edges, parse issues, chunks)
// are updated as groups are released — batched per group, so the
// per-inode sweep stays free of atomics. The cluster path passes two
// instruments, the run-wide one and the per-server set a telemetry
// trailer snapshots; none (or nil entries) observe nothing.
func ScanImageToSinkInstr(ctx context.Context, img *ldiskfs.Image, workers, chunkEntries int, sink Sink, ins ...*Instr) error {
	groups := img.Groups()
	em := newChunkEmitter(img.Label(), chunkEntries, sink, ins)
	if groups == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return em.flush(true)
	}

	shards := make([]*Partial, groups)
	errs := make([]error, groups)
	ready := make([]chan struct{}, groups)
	for g := range ready {
		ready[g] = make(chan struct{})
	}
	go par.ForRange(groups, workers, func(lo, hi int) {
		for g := lo; g < hi; g++ {
			p := &Partial{}
			errs[g] = scanGroup(img, g, p)
			shards[g] = p
			close(ready[g])
		}
	})

	// Ordered release: groups stream out in index order as they finish,
	// overlapping the sweep with downstream transfer and aggregation.
	var firstErr error
	for g := 0; g < groups; g++ {
		<-ready[g]
		if firstErr != nil {
			continue // drain so the sweep goroutines finish before return
		}
		if err := ctx.Err(); err != nil {
			firstErr = err
			continue
		}
		if errs[g] != nil {
			firstErr = fmt.Errorf("scanner: group %d: %w", g, errs[g])
			continue
		}
		for _, in := range ins {
			in.group(shards[g]) // before add: add consumes the group's slices
		}
		if err := em.add(shards[g]); err != nil {
			firstErr = err
			continue
		}
		shards[g] = nil // release as soon as shipped
	}
	if firstErr != nil {
		return firstErr
	}
	return em.flush(true)
}
