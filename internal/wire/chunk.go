package wire

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"faultyrank/internal/bincodec"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/scanner"
	"faultyrank/internal/telemetry"
)

// Chunk encoding (all little-endian):
//
//	u16 labelLen | label
//	u32 seq
//	u8 flags (bit 0 = final; other bits must be zero)
//	u32 objectCount | objects × { 16B fid, u64 ino, u16 type }
//	u32 edgeCount   | edges   × { u32 src, 16B dst, u8 kind }
//	u32 issueCount  | issues  × { u64 ino, u16 len, text }
//	stats: 3 × u64
//
// An edge's src is the ordinal of its source object among the objects
// of the server's whole stream, earlier chunks' included (see
// scanner.Chunk): the FID of the object record the scan wrote for the
// inode the edge came from, named by position rather than repeated.
// DecodeChunk checks only the record sizes; the receiving agg.Builder
// refuses an ordinal its stream has not yet carried.
//
// The object and edge sections are a scanner.Chunk's record sections
// byte for byte, so encoding copies them whole and decoding slices
// them out of the payload. The encoding is bijective: a payload either
// fails DecodeChunk or re-encodes to the identical bytes (the fuzz
// target leans on this).

const chunkFlagFinal = 1

// chunkMinIssue is an issue's encoded size with empty text: the
// decoder's allocation bound for the issue count.
const chunkMinIssue = 8 + 2

// EncodeChunk serializes one scanner chunk for streamed transfer.
func EncodeChunk(c *scanner.Chunk) []byte { return AppendChunk(nil, c) }

// AppendChunk appends c's encoding to buf, growing it at most once. The
// record sections are copied as they are.
func AppendChunk(buf []byte, c *scanner.Chunk) []byte {
	size := 2 + len(c.ServerLabel) + 9 + len(c.Objects.Bytes()) + 4 + len(c.Edges.Bytes()) + 4 + 24
	for _, is := range c.Issues {
		size += chunkMinIssue + len(is.What)
	}
	buf = append(appendChunkHead(slices.Grow(buf, size), c), c.Objects.Bytes()...)
	buf = append(le.AppendUint32(buf, uint32(c.Edges.Len())), c.Edges.Bytes()...)
	return appendChunkTail(buf, c)
}

// appendChunkHead appends the encoding up to the object records: label,
// seq, flags and the object count.
func appendChunkHead(buf []byte, c *scanner.Chunk) []byte {
	buf = bincodec.AppendStr16(buf, c.ServerLabel)
	buf = le.AppendUint32(buf, uint32(c.Seq))
	var flags byte
	if c.Final {
		flags |= chunkFlagFinal
	}
	buf = append(buf, flags)
	return le.AppendUint32(buf, uint32(c.Objects.Len()))
}

// appendChunkTail appends the encoding after the edge records: the
// issues and the stats.
func appendChunkTail(buf []byte, c *scanner.Chunk) []byte {
	buf = le.AppendUint32(buf, uint32(len(c.Issues)))
	for _, is := range c.Issues {
		buf = le.AppendUint64(buf, uint64(is.Ino))
		buf = bincodec.AppendStr16(buf, is.What)
	}
	buf = le.AppendUint64(buf, uint64(c.Stats.InodesScanned))
	buf = le.AppendUint64(buf, uint64(c.Stats.DirentsRead))
	return le.AppendUint64(buf, uint64(c.Stats.EdgesEmitted))
}

// DecodeChunk parses an encoded chunk. Its object and edge sections
// alias b: the records are the chunk, so decoding moves none of them,
// and b must not be modified for as long as the chunk is in use (the
// collector reads every chunk frame into a buffer of its own for this).
// Each count is bounded against the bytes left, count × record size,
// before its section is sliced. The label is copied, and so are the
// issues, into one string all their texts are substrings of; the
// chunk therefore costs the same few allocations whatever it holds.
func DecodeChunk(b []byte) (*scanner.Chunk, error) {
	d := bincodec.NewReader(&chunkFormat, b)
	c := &scanner.Chunk{}
	c.ServerLabel = d.Str16()
	c.Seq = int(d.U32())
	flags := d.U8()
	if flags&^byte(chunkFlagFinal) != 0 {
		d.Failf("unknown flags %#x", flags)
	}
	c.Final = flags&chunkFlagFinal != 0
	c.Objects = scanner.ObjectRecords(d.Bytes(d.Count(uint64(d.U32()), scanner.ObjectSize) * scanner.ObjectSize))
	c.Edges = scanner.EdgeRecords(d.Bytes(d.Count(uint64(d.U32()), scanner.EdgeSize) * scanner.EdgeSize))
	if n := d.Count(uint64(d.U32()), chunkMinIssue); n > 0 {
		c.Issues = make([]scanner.Issue, n)
		// The issue section (and the 24 stats bytes after it) copied
		// once; a text is the substring at its own offset.
		start := len(b) - d.Remaining()
		texts := string(b[start:])
		for i := range c.Issues {
			c.Issues[i].Ino = ldiskfs.Ino(d.U64())
			n := int(d.U16())
			at := len(b) - d.Remaining() - start
			if d.Bytes(n) != nil {
				c.Issues[i].What = texts[at : at+n]
			}
		}
	}
	c.Stats.InodesScanned = int64(d.U64())
	c.Stats.DirentsRead = int64(d.U64())
	c.Stats.EdgesEmitted = int64(d.U64())
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return c, nil
}

// ChunkStream ships a scanner's chunk stream to a collector over one TCP
// connection. It implements scanner.Sink, so it plugs directly under
// scanner.ScanImageToSink: each emitted chunk is framed and written
// immediately, which is what lets the MDS-side aggregation overlap the
// transfer instead of waiting for a whole encoded partial. A frame goes
// out in one gathered write (writev) straight from the chunk's record
// sections; the stream encodes only the few bytes around them. After the
// final chunk the stream waits for the collector's acknowledgement
// before Emit returns.
type ChunkStream struct {
	conn net.Conn
	ctx  context.Context
	// opTimeout bounds each frame write (and the final ack read); zero
	// relies on the ctx deadline alone.
	opTimeout   time.Duration
	dialRetries int
	// frames and bytes are this stream's own tallies (telemetry
	// counters so Sent is race-free against a concurrent reader);
	// metrics additionally feeds each attached registry view — the
	// run-wide one and, on the cluster path, the per-server one.
	frames  telemetry.Counter
	bytes   telemetry.Counter
	metrics []*Metrics
	// journal, when set, records this stream's flight-recorder events:
	// slow frames and the stream-final marker. Nil journals no-op.
	journal *telemetry.Journal
	// finalWritten, when set, runs once the final frame is written,
	// before the ack wait.
	finalWritten func()
	// meta holds the frame's bytes other than the record sections: the
	// header through the object count, the edge count, and the issues
	// and stats. iov and bufs are the gathered write's vector; a write
	// consumes bufs, so each frame refills it from iov.
	meta []byte
	iov  [5][]byte
	bufs net.Buffers
	err  error
}

// SlowFrameThreshold is the frame-write latency above which a stream
// with a journal records a slow-frame event — slow enough to indicate
// backpressure or a stalling peer, fast enough to fire well before the
// op timeout kills the stream.
const SlowFrameThreshold = 250 * time.Millisecond

// DialChunkStreamContext connects one scanner stream to a collector
// under ctx, retrying the dial per policy. opTimeout bounds each
// subsequent frame write and the final ack read (0 = ctx deadline
// only), so a stalled collector surfaces as an I/O timeout instead of
// hanging the scanner. Dial retries, sent frames/bytes and per-frame
// write latency land in every registry view in ms as the stream ships.
// The cluster path passes two — the run-wide metrics and the per-server
// set its manifest section snapshots — and nil entries observe nothing.
func DialChunkStreamContext(ctx context.Context, addr string, policy RetryPolicy, opTimeout time.Duration, ms ...*Metrics) (*ChunkStream, error) {
	conn, retries, err := dialRetry(ctx, addr, policy)
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		if m != nil {
			m.DialRetries.Add(int64(retries))
		}
	}
	return &ChunkStream{conn: conn, ctx: ctx, opTimeout: opTimeout, dialRetries: retries, metrics: ms}, nil
}

// SetJournal attaches the stream's flight recorder: slow frame writes
// are recorded to it, and so is the stream-final marker once the final
// chunk is written. A nil journal is fine.
func (s *ChunkStream) SetJournal(j *telemetry.Journal) { s.journal = j }

// OnFinalWritten sets fn to run once the final chunk's frame is written,
// before the stream waits for the collector's acknowledgement: the
// moment the scanner's own work on the stream ends, which a collector
// slow to take the chunk must not stretch.
func (s *ChunkStream) OnFinalWritten(fn func()) { s.finalWritten = fn }

// DialRetries reports how many redials the initial connect needed.
func (s *ChunkStream) DialRetries() int { return s.dialRetries }

// Sent reports the frames and payload bytes shipped so far.
func (s *ChunkStream) Sent() (frames, bytes int64) { return s.frames.Value(), s.bytes.Value() }

// Emit frames and sends one chunk. A mid-stream collector failure
// surfaces either as a write error here or as the error frame read in
// place of the final ack.
func (s *ChunkStream) Emit(c *scanner.Chunk) error {
	m := appendChunkHead(append(s.meta[:0], make([]byte, frameHeader)...), c)
	head := len(m)
	m = le.AppendUint32(m, uint32(c.Edges.Len()))
	mid := len(m)
	s.meta = appendChunkTail(m, c)
	return s.emit(c.Final, s.meta[:head], c.Objects.Bytes(), s.meta[head:mid], c.Edges.Bytes(), s.meta[mid:])
}

// BorrowsChunks makes the stream a scanner.Borrower: Emit has written
// the chunk to the connection before it returns, so the scanner may lend
// its scratch chunk instead of copying it.
func (s *ChunkStream) BorrowsChunks() {}

// EmitRaw ships an already-encoded (possibly deliberately corrupt)
// chunk payload — the hook fault injection uses to put hostile frames
// on a live stream.
func (s *ChunkStream) EmitRaw(payload []byte, final bool) error {
	s.meta = append(s.meta[:0], make([]byte, frameHeader)...)
	return s.emit(final, s.meta, payload)
}

// emit seals and ships one chunk frame: parts concatenated are the
// frame, the first starting with frameHeader bytes reserved for its
// header.
func (s *ChunkStream) emit(final bool, parts ...[]byte) error {
	if s.err != nil {
		return s.err
	}
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return err
		}
	}
	s.setDeadline(net.Conn.SetWriteDeadline)
	var t0 time.Time
	if len(s.metrics) > 0 || s.journal != nil {
		t0 = time.Now()
	}
	payload := -frameHeader
	for _, p := range parts {
		payload += len(p)
	}
	err := sealFrame(parts[0], MsgChunk, payload)
	if err == nil {
		s.bufs = append(s.iov[:0], parts...)
		_, err = s.bufs.WriteTo(s.conn)
	}
	if err != nil {
		s.err = err
		return err
	}
	s.frames.Inc()
	s.bytes.Add(int64(payload))
	var elapsed time.Duration
	if !t0.IsZero() {
		elapsed = time.Since(t0)
	}
	for _, m := range s.metrics {
		if m != nil {
			m.FrameWrite.Observe(elapsed.Seconds())
			m.FramesSent.Inc()
			m.BytesSent.Add(int64(payload))
		}
	}
	if s.journal != nil && elapsed > SlowFrameThreshold {
		s.journal.Record("wire", "slow-frame",
			"seconds", fmt.Sprintf("%.3f", elapsed.Seconds()),
			"bytes", fmt.Sprintf("%d", payload))
	}
	if !final {
		return nil
	}
	// Terminal marker: a lane without it died mid-stream.
	if s.journal != nil {
		s.journal.Record("wire", "stream-final",
			"frames", fmt.Sprintf("%d", s.frames.Value()),
			"bytes", fmt.Sprintf("%d", s.bytes.Value()))
	}
	if s.finalWritten != nil {
		s.finalWritten()
	}
	s.setDeadline(net.Conn.SetReadDeadline)
	typ, body, err := ReadFrame(s.conn)
	if err != nil {
		s.err = err
		return err
	}
	if err := AsError(typ, body); err != nil {
		s.err = err
		return err
	}
	if typ != MsgAck {
		s.err = fmt.Errorf("wire: unexpected ack type %d", typ)
		return s.err
	}
	return nil
}

func (s *ChunkStream) setDeadline(set func(net.Conn, time.Time) error) {
	ctx := s.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	_ = set(s.conn, ioDeadline(ctx, s.opTimeout))
}

// Close releases the connection.
func (s *ChunkStream) Close() error { return s.conn.Close() }

// CollectResult reports what one CollectChunksContext run received: the
// per-stage transfer counters frbench surfaces, the labels whose
// streams completed, and a human-readable account of every stream
// failure (empty on a clean run).
type CollectResult struct {
	// Frames and Bytes count every chunk frame the collector decoded
	// (snapshots of the per-collect counters, taken after all stream
	// handlers stop).
	Frames, Bytes int64
	// Completed lists the server labels whose final chunk arrived,
	// sorted for deterministic reporting.
	Completed []string
	// Errors describes each failed or aborted stream.
	Errors []string
}

// CollectChunksContext accepts nStreams chunk-stream connections and
// delivers every decoded chunk until each stream has sent its final
// chunk. Streams are handled concurrently, so deliver must be safe for
// concurrent use (agg.Builder.Emit is). When ctx expires or is
// cancelled, the accept wait and every in-flight stream read are
// unblocked (listener closed, connection deadlines forced), so a crashed
// or stalled scanner can never hang the aggregator.
//
// With degraded=false the first failure — stream error, accept error,
// or ctx expiry — aborts the sibling streams and is returned. With
// degraded=true the collector instead completes with whatever streams
// finished: failed streams are recorded in the result and the caller
// decides what surviving coverage is acceptable. The result is returned
// in both modes so callers can report transfer counters.
func (c *Collector) CollectChunksContext(ctx context.Context, nStreams int, degraded bool, deliver func(*scanner.Chunk) error) (*CollectResult, error) {
	res := &CollectResult{}
	// Per-collect frame/byte tallies: telemetry counters rather than
	// hand-rolled atomics, snapshotted into res once the handlers stop.
	// c.metrics (when observed) additionally feeds the run registry.
	var frames, bytes telemetry.Counter
	var mu sync.Mutex // guards res fields and conns
	conns := make(map[net.Conn]struct{})
	var errs []error

	// stop unblocks the accept wait and all in-flight reads exactly
	// once: on ctx expiry, or (strict mode) on the first stream error.
	var stopOnce sync.Once
	stop := func() {
		stopOnce.Do(func() {
			c.ln.Close()
			mu.Lock()
			for conn := range conns {
				_ = conn.SetDeadline(time.Now())
			}
			mu.Unlock()
		})
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			stop()
		case <-done:
		}
	}()

	var wg sync.WaitGroup
	accepted := 0
	for accepted < nStreams {
		conn, err := c.ln.Accept()
		if err != nil {
			// The listener was closed — by ctx expiry, a sibling abort,
			// or the caller signalling that no more senders are coming
			// (checker's all-scanners-done watchdog). Only strict mode
			// treats the missing streams as an error.
			if !degraded && ctx.Err() == nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}
			break
		}
		accepted++
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer func() {
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
				conn.Close()
			}()
			label, err := serveChunkStream(conn, deliver, &frames, &bytes, c.metrics)
			mu.Lock()
			if err != nil {
				if label != "" {
					err = fmt.Errorf("stream %q: %w", label, err)
				}
				errs = append(errs, err)
				res.Errors = append(res.Errors, err.Error())
				if c.metrics != nil {
					c.metrics.StreamErrors.Inc()
					c.metrics.Journal.Record("wire", "stream-error",
						"server", label, "err", err.Error())
				}
				mu.Unlock()
				if !degraded {
					stop() // abort the sibling streams
				}
				return
			}
			res.Completed = append(res.Completed, label)
			mu.Unlock()
		}(conn)
	}
	wg.Wait()
	res.Frames = frames.Value()
	res.Bytes = bytes.Value()
	sort.Strings(res.Completed)
	sort.Strings(res.Errors)
	if degraded {
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("wire: collect: %w", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(errs) > 0 {
		return res, errs[0]
	}
	return res, nil
}

// serveChunkStream drains one connection's chunks into deliver,
// counting frames and bytes into the per-collect counters and, when
// set, the run-wide metrics, and acks the final chunk. A stream carries
// one server: a chunk labelled otherwise than the first fails it.
// Returns the stream's server label ("" if no chunk decoded before the
// failure).
func serveChunkStream(conn net.Conn, deliver func(*scanner.Chunk) error, frames, bytes *telemetry.Counter, m *Metrics) (string, error) {
	label, labelled := "", false
	for {
		// Every frame is read into a buffer of its own: a decoded chunk's
		// record sections alias its payload, and deliver may keep them.
		typ, payload, err := ReadFrame(conn)
		if err != nil {
			return label, fmt.Errorf("wire: chunk stream: %w", err)
		}
		if err := AsError(typ, payload); err != nil {
			return label, err
		}
		if typ != MsgChunk {
			err := fmt.Errorf("wire: expected chunk, got message %d", typ)
			_ = WriteError(conn, err)
			return label, err
		}
		ch, err := DecodeChunk(payload)
		if err == nil && labelled && ch.ServerLabel != label {
			err = fmt.Errorf("wire: chunk for server %q on the stream of server %q", ch.ServerLabel, label)
		}
		if err != nil {
			_ = WriteError(conn, err)
			return label, err
		}
		frames.Inc()
		bytes.Add(int64(len(payload)))
		if m != nil {
			m.FramesRecv.Inc()
			m.BytesRecv.Add(int64(len(payload)))
		}
		label, labelled = ch.ServerLabel, true
		if err := deliver(ch); err != nil {
			_ = WriteError(conn, err)
			return label, err
		}
		if ch.Final {
			return label, WriteFrame(conn, MsgAck, nil)
		}
	}
}
