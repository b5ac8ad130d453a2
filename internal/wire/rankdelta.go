package wire

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"faultyrank/internal/bincodec"
	"faultyrank/internal/core"
	"faultyrank/internal/graph"
)

// RankDeltaVersion is the codec version carried in every MsgRankDelta
// payload. A coordinator and its workers must agree exactly — the
// superstep protocol has no room for mixed-version best effort, and the
// version byte is what turns a stale peer into a loud decode error
// instead of silent garbage. Version 3 dropped the Hello shard
// fingerprint (the driver that built the plan hands each worker its
// shard) and added the kernel constants Init carries.
const RankDeltaVersion = 3

// RankDelta encoding (little-endian), version 3:
//
//	u8 version | u8 kind | u32 part | u32 iter
//	u64 base | u64 perSink | u64 diff   (IEEE-754 bit patterns)
//	u64 unpairedWeight | u64 smoothing  (IEEE-754 bit patterns)
//	u8 flags (bit 0 halt, bit 1 leaky)
//	u32 sinkCount  | sinkCount  × u64
//	u32 ghostCount | ghostCount × u64
//	u32 idCount    | idCount    × u64
//	u32 propCount  | propCount  × u64
//	u16 boundCount | boundCount × { u32 count | count × u64 }
//
// The encoding is bijective: flags admits only its two bits, every
// count is bounded against the remaining payload before its array is
// allocated (a lying header on a hostile stream fails fast, it never
// allocates), zero-length vectors decode to nil, and trailing bytes are
// rejected — so a payload either fails DecodeRankDelta or re-encodes to
// identical bytes (FuzzDecodeRankDelta leans on this). Float values
// cross as raw bit patterns, which is part of the partitioned kernel's
// bitwise-equivalence contract: a ghost value arrives as exactly the
// float the owner computed, and a worker's kernel constants are exactly
// the coordinator's.

const (
	rankFlagHalt  = 1 << 0
	rankFlagLeaky = 1 << 1
)

// EncodeRankDelta serializes one superstep frame. The result's length
// is always (*core.RankDelta).WireSize().
func EncodeRankDelta(d *core.RankDelta) []byte {
	buf := make([]byte, 0, d.WireSize())
	buf = append(buf, RankDeltaVersion, d.Kind)
	buf = le.AppendUint32(buf, d.Part)
	buf = le.AppendUint32(buf, d.Iter)
	for _, v := range [...]float64{d.Base, d.PerSink, d.Diff, d.UnpairedWeight, d.Smoothing} {
		buf = le.AppendUint64(buf, math.Float64bits(v))
	}
	var flags byte
	if d.Halt {
		flags |= rankFlagHalt
	}
	if d.Leaky {
		flags |= rankFlagLeaky
	}
	buf = append(buf, flags)
	for _, vec := range [][]float64{d.Sink, d.Ghost, d.ID, d.Prop} {
		buf = appendFloats64(buf, vec)
	}
	buf = le.AppendUint16(buf, uint16(len(d.Bound)))
	for _, b := range d.Bound {
		buf = appendFloats64(buf, b)
	}
	return buf
}

func appendFloats64(buf []byte, vec []float64) []byte {
	buf = le.AppendUint32(buf, uint32(len(vec)))
	for _, v := range vec {
		buf = le.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// floats64 decodes a u32-counted float vector, bounding the count
// against the remaining payload before allocating. Empty decodes nil
// (canonical form).
func floats64(d *bincodec.Reader) []float64 {
	n := d.Count(uint64(d.U32()), 8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}

// DecodeRankDelta parses one superstep frame.
func DecodeRankDelta(b []byte) (*core.RankDelta, error) {
	d := bincodec.NewReader(&rankDeltaFormat, b)
	d.Header("", RankDeltaVersion)
	r := &core.RankDelta{}
	r.Kind = d.U8()
	if r.Kind < core.RankHello || r.Kind > core.RankDone {
		d.Failf("unknown kind %d", r.Kind)
	}
	r.Part = d.U32()
	r.Iter = d.U32()
	r.Base = d.F64()
	r.PerSink = d.F64()
	r.Diff = d.F64()
	r.UnpairedWeight = d.F64()
	r.Smoothing = d.F64()
	flags := d.U8()
	if flags&^(rankFlagHalt|rankFlagLeaky) != 0 {
		d.Failf("flags byte %#x", flags)
	}
	r.Halt = flags&rankFlagHalt != 0
	r.Leaky = flags&rankFlagLeaky != 0
	r.Sink = floats64(d)
	r.Ghost = floats64(d)
	r.ID = floats64(d)
	r.Prop = floats64(d)
	// Each bundle needs at least its 4-byte count.
	if nBound := d.Count(uint64(d.U16()), 4); nBound > 0 {
		r.Bound = make([][]float64, nBound)
		for q := range r.Bound {
			r.Bound[q] = floats64(d)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return r, nil
}

// RankConn is one end of a TCP superstep link (core.Link over framed
// MsgRankDelta messages). Every send and receive carries the
// established deadline discipline: per-operation timeout combined with
// the context deadline, so a crashed peer surfaces as an I/O error
// within opTimeout instead of hanging the superstep barrier.
type RankConn struct {
	conn      net.Conn
	ctx       context.Context
	opTimeout time.Duration
}

// NewRankConn wraps an established connection as a superstep link.
func NewRankConn(ctx context.Context, conn net.Conn, opTimeout time.Duration) *RankConn {
	return &RankConn{conn: conn, ctx: ctx, opTimeout: opTimeout}
}

// Send writes one superstep message.
func (c *RankConn) Send(d *core.RankDelta) error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	_ = c.conn.SetWriteDeadline(ioDeadline(c.ctx, c.opTimeout))
	return WriteFrame(c.conn, MsgRankDelta, EncodeRankDelta(d))
}

// Recv reads one superstep message (a peer's MsgError surfaces as its
// error).
func (c *RankConn) Recv() (*core.RankDelta, error) {
	if err := c.ctx.Err(); err != nil {
		return nil, err
	}
	_ = c.conn.SetReadDeadline(ioDeadline(c.ctx, c.opTimeout))
	typ, payload, err := ReadFrame(c.conn)
	if err != nil {
		return nil, err
	}
	if err := AsError(typ, payload); err != nil {
		return nil, err
	}
	if typ != MsgRankDelta {
		return nil, fmt.Errorf("wire: frame type %d on rank link, want %d", typ, MsgRankDelta)
	}
	return DecodeRankDelta(payload)
}

// Close releases the connection.
func (c *RankConn) Close() error { return c.conn.Close() }

// RankExchange is the coordinator-side endpoint of a TCP superstep
// exchange: rank workers dial in, announce their partition with a Hello
// frame, and the coordinator drives the BSP protocol over the resulting
// links.
type RankExchange struct {
	ln        net.Listener
	opTimeout time.Duration

	// mu guards conns and closed: AcceptWorkers' context watcher closes
	// the exchange from its own goroutine while the accept loop is still
	// adding links.
	mu     sync.Mutex
	conns  []*RankConn
	closed bool
}

// NewRankExchange listens for rank workers on a fresh localhost port
// (127.0.0.1:0): the workers are goroutines of the coordinator's
// process, and nothing off the host can dial in to take a partition.
// opTimeout bounds every subsequent per-frame read/write on accepted
// links.
func NewRankExchange(opTimeout time.Duration) (*RankExchange, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return &RankExchange{ln: ln, opTimeout: opTimeout}, ln.Addr().String(), nil
}

// AcceptWorkers accepts one worker connection per partition of a k-way
// plan and runs the one handshake with each: read its Hello and check
// that the partition it names is in range and not already taken. It
// writes nothing; each worker already holds its shard. It returns the
// links ordered by partition index. ctx bounds the whole handshake: its
// cancellation closes the listener and every accepted connection, so a
// worker that never dials cannot hang the coordinator.
func (x *RankExchange) AcceptWorkers(ctx context.Context, k int) ([]core.Link, error) {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			x.Close()
		case <-done:
		}
	}()

	links := make([]core.Link, k)
	for accepted := 0; accepted < k; accepted++ {
		rc, err := x.accept(ctx)
		if err != nil {
			if ctx.Err() != nil {
				err = ctx.Err()
			}
			return nil, fmt.Errorf("wire: rank exchange accept (%d/%d workers): %w", accepted, k, err)
		}
		hello, err := rc.Recv()
		if err != nil {
			return nil, fmt.Errorf("wire: rank hello: %w", err)
		}
		if hello.Kind != core.RankHello {
			return nil, fmt.Errorf("wire: expected rank hello, got kind %d", hello.Kind)
		}
		if hello.Part >= uint32(k) {
			return nil, fmt.Errorf("wire: rank hello names partition %d of %d", hello.Part, k)
		}
		if links[hello.Part] != nil {
			return nil, fmt.Errorf("wire: duplicate rank hello for partition %d", hello.Part)
		}
		links[hello.Part] = rc
	}
	return links, nil
}

// accept takes the next worker connection and records its link for
// Close; once the exchange is closed it refuses, so a connection
// accepted just before the listener shut cannot outlive it.
func (x *RankExchange) accept(ctx context.Context) (*RankConn, error) {
	conn, err := x.ln.Accept()
	if err != nil {
		return nil, err
	}
	rc := NewRankConn(ctx, conn, x.opTimeout)
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		rc.Close()
		return nil, net.ErrClosed
	}
	x.conns = append(x.conns, rc)
	return rc, nil
}

// Close shuts the listener and every accepted link. It is safe to call
// more than once and from any goroutine.
func (x *RankExchange) Close() error {
	x.mu.Lock()
	conns := x.conns
	x.conns, x.closed = nil, true
	x.mu.Unlock()
	err := x.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	return err
}

// ServeRankWorker is the one rank worker: it dials the coordinator's
// exchange at addr with bounded retry, announces the partition of its
// shard sub, and runs the worker side of the superstep protocol
// (core.RunPartition) on sub until the coordinator's Done or a broken
// link. The driver that built the plan runs one goroutine of it per
// partition and hands each its shard directly. workers bounds the local
// sweep's parallelism; every other kernel knob arrives in the Init
// frame.
func ServeRankWorker(ctx context.Context, addr string, sub *graph.SubGraph, workers int, opTimeout time.Duration) error {
	conn, _, err := dialRetry(ctx, addr, DefaultRetryPolicy())
	if err != nil {
		return fmt.Errorf("dialing rank exchange %s: %w", addr, err)
	}
	rc := NewRankConn(ctx, conn, opTimeout)
	defer rc.Close()
	if err := rc.Send(&core.RankDelta{Kind: core.RankHello, Part: uint32(sub.Part)}); err != nil {
		return fmt.Errorf("rank hello: %w", err)
	}
	return core.RunPartition(sub, workers, rc)
}
