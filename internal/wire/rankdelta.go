package wire

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"faultyrank/internal/bincodec"
	"faultyrank/internal/core"
)

// RankDeltaVersion is the codec version carried in every MsgRankDelta
// payload. A coordinator and its workers must agree exactly — the
// superstep protocol has no room for mixed-version best effort, and now
// that workers can be separately-built frrankd binaries the version
// byte is what turns a stale binary into a loud decode error instead of
// silent garbage. Version 2 added the u64 sum field (shard fingerprint
// on Hello frames).
const RankDeltaVersion = 2

// RankDelta encoding (little-endian), version 2:
//
//	u8 version | u8 kind | u32 part | u32 iter
//	u64 base | u64 perSink | u64 diff   (IEEE-754 bit patterns)
//	u64 sum
//	u8 halt (0 or 1)
//	u32 sinkCount  | sinkCount  × u64
//	u32 ghostCount | ghostCount × u64
//	u32 idCount    | idCount    × u64
//	u32 propCount  | propCount  × u64
//	u16 boundCount | boundCount × { u32 count | count × u64 }
//
// The encoding is bijective: halt admits only 0/1, every count is
// bounded against the remaining payload before its array is allocated
// (a lying header on a hostile stream fails fast, it never allocates),
// zero-length vectors decode to nil, and trailing bytes are rejected —
// so a payload either fails DecodeRankDelta or re-encodes to identical
// bytes (FuzzDecodeRankDelta leans on this). Float values cross as raw
// bit patterns, which is part of the partitioned kernel's bitwise-
// equivalence contract: a ghost value arrives as exactly the float the
// owner computed.

// EncodeRankDelta serializes one superstep frame. The result's length
// is always (*core.RankDelta).WireSize().
func EncodeRankDelta(d *core.RankDelta) []byte {
	buf := make([]byte, 0, d.WireSize())
	buf = append(buf, RankDeltaVersion, d.Kind)
	buf = le.AppendUint32(buf, d.Part)
	buf = le.AppendUint32(buf, d.Iter)
	buf = le.AppendUint64(buf, math.Float64bits(d.Base))
	buf = le.AppendUint64(buf, math.Float64bits(d.PerSink))
	buf = le.AppendUint64(buf, math.Float64bits(d.Diff))
	buf = le.AppendUint64(buf, d.Sum)
	if d.Halt {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
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
	r.Sum = d.U64()
	switch h := d.U8(); h {
	case 0:
	case 1:
		r.Halt = true
	default:
		d.Failf("halt byte %d", h)
	}
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
	metrics   *Metrics
}

// NewRankConn wraps an established connection as a superstep link.
func NewRankConn(ctx context.Context, conn net.Conn, opTimeout time.Duration) *RankConn {
	return &RankConn{conn: conn, ctx: ctx, opTimeout: opTimeout}
}

// Observe attaches wire metrics: rank frames count into the run-wide
// frame/byte counters like chunk frames do.
func (c *RankConn) Observe(m *Metrics) { c.metrics = m }

// Send frames and writes one superstep message.
func (c *RankConn) Send(d *core.RankDelta) error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	_ = c.conn.SetWriteDeadline(ioDeadline(c.ctx, c.opTimeout))
	payload := EncodeRankDelta(d)
	if err := WriteFrame(c.conn, MsgRankDelta, payload); err != nil {
		return err
	}
	if c.metrics != nil {
		c.metrics.FramesSent.Inc()
		c.metrics.BytesSent.Add(int64(len(payload)))
	}
	return nil
}

// Recv reads one superstep message.
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
		return nil, fmt.Errorf("wire: unexpected frame type %d on rank link", typ)
	}
	if c.metrics != nil {
		c.metrics.FramesRecv.Inc()
		c.metrics.BytesRecv.Add(int64(len(payload)))
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
	metrics   *Metrics

	// mu guards conns and closed: AcceptWorkers' context watcher closes
	// the exchange from its own goroutine while the accept loop is still
	// adding links.
	mu     sync.Mutex
	conns  []*RankConn
	closed bool
}

// NewRankExchange listens for rank workers on bind ("" defaults to
// 127.0.0.1:0, a fresh localhost port — the in-process and test path).
// A non-loopback bind is what lets frrankd workers on other hosts dial
// in. opTimeout bounds every subsequent per-frame read/write on
// accepted links.
func NewRankExchange(bind string, opTimeout time.Duration) (*RankExchange, string, error) {
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, "", err
	}
	return &RankExchange{ln: ln, opTimeout: opTimeout}, ln.Addr().String(), nil
}

// Observe attaches wire metrics to every link the exchange accepts.
func (x *RankExchange) Observe(m *Metrics) { x.metrics = m }

// ErrHelloMismatch is wrapped when a worker's Hello names the right
// partition but the wrong plan — a K that differs from the
// coordinator's, or a shard fingerprint that does not match the shard
// the coordinator built for that partition. It is the named signal that
// a separately-built or mis-pointed worker was refused before any
// superstep ran.
var ErrHelloMismatch = errors.New("wire: rank hello does not match coordinator plan")

// WorkerSpec tells AcceptWorkers what a valid worker cohort looks like
// and how to equip workers that arrive without a shard.
type WorkerSpec struct {
	// K is the partition count; exactly K workers are accepted.
	K int

	// Sums[p], when non-nil, is the canonical FRSG fingerprint of
	// partition p's shard; a worker whose Hello carries a different
	// non-zero sum is rejected (ErrHelloMismatch).
	Sums []uint64

	// Shard returns partition p's encoded FRSG blob for a worker whose
	// Hello carries Sum 0 ("no shard, ship me one"). Nil means shipping
	// is unsupported and such a worker is rejected.
	Shard func(p int) []byte

	// HandshakeTimeout, when positive, bounds the wait for each worker
	// to dial in — the knob that turns "a remote worker never arrived"
	// into a timely error the checker can degrade on, without poisoning
	// the accepted links' lifetime (they keep ctx + opTimeout).
	HandshakeTimeout time.Duration
}

// AcceptWorkers accepts exactly spec.K worker connections, reads and
// validates each one's Hello, and returns the links ordered by
// partition index. Duplicate or out-of-range partitions, a mismatched
// K, or a mismatched shard fingerprint fail the accept; a worker with
// no shard gets its partition's blob shipped in a MsgSubGraph frame
// before the next accept. ctx bounds the whole handshake: its
// cancellation closes the listener and every accepted connection, so a
// worker that never dials cannot hang the checker.
func (x *RankExchange) AcceptWorkers(ctx context.Context, spec WorkerSpec) ([]core.Link, error) {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			x.Close()
		case <-done:
		}
	}()
	if spec.HandshakeTimeout > 0 {
		if tl, ok := x.ln.(*net.TCPListener); ok {
			_ = tl.SetDeadline(time.Now().Add(spec.HandshakeTimeout))
			defer tl.SetDeadline(time.Time{})
		}
	}

	links := make([]core.Link, spec.K)
	for accepted := 0; accepted < spec.K; accepted++ {
		rc, err := x.accept(ctx)
		if err != nil {
			if ctx.Err() != nil {
				err = ctx.Err()
			}
			return nil, fmt.Errorf("wire: rank exchange accept (%d/%d workers): %w", accepted, spec.K, err)
		}
		hello, err := rc.Recv()
		if err != nil {
			return nil, fmt.Errorf("wire: rank hello: %w", err)
		}
		if hello.Kind != core.RankHello {
			return nil, fmt.Errorf("wire: expected rank hello, got kind %d", hello.Kind)
		}
		if hello.Part >= uint32(spec.K) {
			return nil, fmt.Errorf("wire: rank hello names partition %d of %d", hello.Part, spec.K)
		}
		if links[hello.Part] != nil {
			return nil, fmt.Errorf("wire: duplicate rank hello for partition %d", hello.Part)
		}
		if hello.Sum == 0 {
			// The worker has no shard; ship the canonical blob. The
			// fingerprint check is moot — it runs what we just sent.
			if spec.Shard == nil {
				return nil, fmt.Errorf("wire: partition %d worker has no shard and shipping is not configured: %w", hello.Part, ErrHelloMismatch)
			}
			if err := rc.sendShard(spec.Shard(int(hello.Part))); err != nil {
				return nil, fmt.Errorf("wire: shipping shard to partition %d: %w", hello.Part, err)
			}
		} else {
			if hello.Iter != uint32(spec.K) {
				return nil, fmt.Errorf("wire: partition %d worker built for K=%d, coordinator has K=%d: %w", hello.Part, hello.Iter, spec.K, ErrHelloMismatch)
			}
			if spec.Sums != nil && hello.Sum != spec.Sums[hello.Part] {
				return nil, fmt.Errorf("wire: partition %d worker shard fingerprint %#x, coordinator plan has %#x: %w", hello.Part, hello.Sum, spec.Sums[hello.Part], ErrHelloMismatch)
			}
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
	rc.Observe(x.metrics)
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

// sendShard ships an encoded FRSG blob as a MsgSubGraph frame. The
// blob is opaque to the wire layer — graph owns the codec.
func (c *RankConn) sendShard(blob []byte) error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	_ = c.conn.SetWriteDeadline(ioDeadline(c.ctx, c.opTimeout))
	if err := WriteFrame(c.conn, MsgSubGraph, blob); err != nil {
		return err
	}
	if c.metrics != nil {
		c.metrics.FramesSent.Inc()
		c.metrics.BytesSent.Add(int64(len(blob)))
	}
	return nil
}

// RecvShard reads the MsgSubGraph frame a coordinator ships after a
// no-shard Hello and returns the opaque FRSG blob.
func (c *RankConn) RecvShard() ([]byte, error) {
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
	if typ != MsgSubGraph {
		return nil, fmt.Errorf("wire: expected subgraph frame, got type %d", typ)
	}
	if c.metrics != nil {
		c.metrics.FramesRecv.Inc()
		c.metrics.BytesRecv.Add(int64(len(payload)))
	}
	return payload, nil
}

// DialRankLink connects one rank worker to a coordinator's exchange
// with bounded retry and announces its partition, the K it was built
// for, and its shard's canonical fingerprint (Hello reuses the Iter
// field for K). The returned link is ready for core.RunPartition.
func DialRankLink(ctx context.Context, addr string, part, k int, sum uint64, policy RetryPolicy, opTimeout time.Duration) (*RankConn, error) {
	conn, _, err := dialRetry(ctx, addr, policy)
	if err != nil {
		return nil, err
	}
	rc := NewRankConn(ctx, conn, opTimeout)
	if err := rc.Send(&core.RankDelta{Kind: core.RankHello, Part: uint32(part), Iter: uint32(k), Sum: sum}); err != nil {
		conn.Close()
		return nil, err
	}
	return rc, nil
}

// JoinRankShipped connects a shard-less worker: it announces its
// partition with Sum 0 ("ship me my shard") and returns the link
// together with the FRSG blob the coordinator answers with. The caller
// decodes the blob (graph.DecodeSubGraph) and runs the partition.
func JoinRankShipped(ctx context.Context, addr string, part int, policy RetryPolicy, opTimeout time.Duration) (*RankConn, []byte, error) {
	conn, _, err := dialRetry(ctx, addr, policy)
	if err != nil {
		return nil, nil, err
	}
	rc := NewRankConn(ctx, conn, opTimeout)
	if err := rc.Send(&core.RankDelta{Kind: core.RankHello, Part: uint32(part)}); err != nil {
		conn.Close()
		return nil, nil, err
	}
	blob, err := rc.RecvShard()
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("wire: receiving shipped shard for partition %d: %w", part, err)
	}
	return rc, blob, nil
}
