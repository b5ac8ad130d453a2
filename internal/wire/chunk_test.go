package wire

import (
	"context"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"faultyrank/internal/agg"
	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
)

func randomChunk(r *rand.Rand) *scanner.Chunk {
	p := randomPartial(r)
	return &scanner.Chunk{
		ServerLabel: p.ServerLabel,
		Seq:         r.Intn(1000),
		Final:       r.Intn(2) == 0,
		Objects:     p.Objects,
		Edges:       p.Edges,
		Issues:      p.Issues,
		Stats:       p.Stats,
	}
}

func TestChunkCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomChunk(r)
		got, err := DecodeChunk(EncodeChunk(c))
		return err == nil && reflect.DeepEqual(c, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeChunkRejectsCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	enc := EncodeChunk(randomChunk(r))
	if _, err := DecodeChunk(enc[:len(enc)/2]); err == nil {
		t.Error("truncated chunk decoded")
	}
	if _, err := DecodeChunk(append(append([]byte{}, enc...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := DecodeChunk(nil); err == nil {
		t.Error("nil decoded")
	}

	// Unknown flag bits must be rejected (keeps the codec bijective).
	small := EncodeChunk(&scanner.Chunk{ServerLabel: "x", Final: true})
	flagsOff := 2 + 1 + 4
	bad := append([]byte{}, small...)
	bad[flagsOff] |= 0x80
	if _, err := DecodeChunk(bad); err == nil {
		t.Error("unknown flag bits accepted")
	}

	// A huge count in the header must error on the sanity bound, not
	// allocate or loop.
	huge := le.AppendUint16(nil, 0)       // empty label
	huge = le.AppendUint32(huge, 0)       // seq
	huge = append(huge, 0)                // flags
	huge = le.AppendUint32(huge, 1<<32-1) // object count from hostile header
	huge = append(huge, 1, 2, 3, 4)       // a few junk bytes
	if _, err := DecodeChunk(huge); err == nil {
		t.Error("implausible object count accepted")
	}
}

// chunksOf splits a partial into a valid chunk stream of n entries per
// slice type, with stats and issues on the final chunk.
func chunksOf(p *scanner.Partial, n int) []*scanner.Chunk {
	var chunks []*scanner.Chunk
	seq := 0
	add := func(c *scanner.Chunk) {
		c.ServerLabel = p.ServerLabel
		c.Seq = seq
		seq++
		chunks = append(chunks, c)
	}
	for lo := 0; lo < p.Objects.Len(); lo += n {
		hi := lo + n
		if hi > p.Objects.Len() {
			hi = p.Objects.Len()
		}
		add(&scanner.Chunk{Objects: scanner.ObjectRecords(p.Objects.Bytes()[lo*scanner.ObjectSize : hi*scanner.ObjectSize])})
	}
	for lo := 0; lo < p.Edges.Len(); lo += n {
		hi := lo + n
		if hi > p.Edges.Len() {
			hi = p.Edges.Len()
		}
		add(&scanner.Chunk{Edges: scanner.EdgeRecords(p.Edges.Bytes()[lo*scanner.EdgeSize : hi*scanner.EdgeSize])})
	}
	add(&scanner.Chunk{Issues: p.Issues, Stats: p.Stats, Final: true})
	return chunks
}

// TestChunkStreamsIntoBuilder: several concurrent chunk streams arrive
// at one collector feeding an agg.Builder; the reassembled per-server
// partials match the originals exactly.
func TestChunkStreamsIntoBuilder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	labels := []string{"mdt0", "ost0", "ost1"}
	parts := make([]*scanner.Partial, len(labels))
	for i, l := range labels {
		p := randomPartial(r)
		p.ServerLabel = l
		parts[i] = p
	}

	col, addr, err := NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	builder := agg.NewBuilder(labels)

	errCh := make(chan error, len(parts))
	for _, p := range parts {
		go func(p *scanner.Partial) {
			errCh <- func() error {
				cs, err := DialChunkStreamContext(context.Background(), addr, RetryPolicy{}, 0)
				if err != nil {
					return err
				}
				defer cs.Close()
				for _, ch := range chunksOf(p, 5) {
					if err := cs.Emit(ch); err != nil {
						return err
					}
				}
				return nil
			}()
		}(p)
	}
	if _, err := col.CollectChunksContext(context.Background(), len(parts), false, builder.Emit); err != nil {
		t.Fatal(err)
	}
	for range parts {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	got, err := builder.Partials()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if !reflect.DeepEqual(p, got[i]) {
			t.Fatalf("server %s: reassembled partial diverges", labels[i])
		}
	}
}

// TestCollectChunksSenderKilled: the collector expects two streams but
// one sender dies before ever connecting. The old accept loop blocked
// forever; under a deadline the collector must return — with the
// surviving stream's data in degraded mode, with DeadlineExceeded in
// strict mode — well before the test times out.
func TestCollectChunksSenderKilled(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	p := randomPartial(r)
	p.ServerLabel = "mdt0"

	for _, degraded := range []bool{true, false} {
		col, addr, err := NewCollector()
		if err != nil {
			t.Fatal(err)
		}
		sendErr := make(chan error, 1)
		go func() {
			sendErr <- func() error {
				cs, err := DialChunkStreamContext(context.Background(), addr, RetryPolicy{}, 0)
				if err != nil {
					return err
				}
				defer cs.Close()
				for _, ch := range chunksOf(p, 5) {
					if err := cs.Emit(ch); err != nil {
						return err
					}
				}
				return nil
			}()
		}()

		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		builder := agg.NewBuilder([]string{"mdt0", "ost0"})
		// nStreams = 2, but the ost0 sender was "killed" and never dials.
		res, err := col.CollectChunksContext(ctx, 2, degraded, builder.Emit)
		cancel()
		col.Close()
		if degraded {
			if err != nil {
				t.Fatalf("degraded collect failed: %v", err)
			}
			if len(res.Completed) != 1 || res.Completed[0] != "mdt0" {
				t.Fatalf("degraded completed = %v", res.Completed)
			}
			parts, missing := builder.CompletedPartials()
			if len(parts) != 1 || !reflect.DeepEqual(parts[0], p) {
				t.Fatal("surviving stream's partial diverges")
			}
			if len(missing) != 1 || missing[0] != "ost0" {
				t.Fatalf("missing = %v", missing)
			}
		} else if err == nil {
			t.Fatal("strict collect returned nil with a stream missing")
		}
		if err := <-sendErr; err != nil {
			t.Fatalf("surviving sender failed: %v", err)
		}
	}
}

// TestCollectChunksAbortsSiblings: in strict mode a mid-stream error on
// one connection must unblock the sibling stream and the accept wait
// instead of waiting for every other sender to finish naturally.
func TestCollectChunksAbortsSiblings(t *testing.T) {
	col, addr, err := NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	// Sibling: connects, sends one non-final chunk, then idles forever
	// (no final chunk, connection held open).
	sibling, err := DialChunkStreamContext(context.Background(), addr, RetryPolicy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sibling.Close()
	if err := sibling.Emit(&scanner.Chunk{ServerLabel: "ost0", Seq: 0}); err != nil {
		t.Fatal(err)
	}

	// Offender: sends a corrupt frame mid-stream.
	offender, err := DialChunkStreamContext(context.Background(), addr, RetryPolicy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer offender.Close()
	if err := offender.EmitRaw([]byte{0xde, 0xad}, false); err != nil {
		t.Fatal(err)
	}

	builder := agg.NewBuilder([]string{"mdt0", "ost0"})
	done := make(chan error, 1)
	go func() {
		// 3 expected streams: the third never arrives; the corrupt frame
		// must abort both the sibling read and the accept wait.
		_, err := col.CollectChunksContext(context.Background(), 3, false, builder.Emit)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("corrupt frame not reported")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("mid-stream error did not abort sibling streams")
	}
}

// TestCollectChunksDeliverError: a deliver failure surfaces on both
// sides — CollectChunksContext returns it and the sender sees an error frame
// in place of the final ack.
func TestCollectChunksDeliverError(t *testing.T) {
	col, addr, err := NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	r := rand.New(rand.NewSource(9))
	p := randomPartial(r)
	p.ServerLabel = "mdt0"

	sendErr := make(chan error, 1)
	go func() {
		sendErr <- func() error {
			cs, err := DialChunkStreamContext(context.Background(), addr, RetryPolicy{}, 0)
			if err != nil {
				return err
			}
			defer cs.Close()
			for _, ch := range chunksOf(p, 5) {
				if err := cs.Emit(ch); err != nil {
					return err
				}
			}
			return nil
		}()
	}()

	// Builder expecting a different server rejects every chunk.
	builder := agg.NewBuilder([]string{"ost0"})
	if _, err := col.CollectChunksContext(context.Background(), 1, false, builder.Emit); err == nil {
		t.Fatal("CollectChunksContext swallowed deliver error")
	}
	if err := <-sendErr; err == nil {
		t.Fatal("sender saw no error")
	}
}

// retainSink keeps every chunk it is delivered, as agg.Builder does.
type retainSink struct {
	mu     sync.Mutex
	chunks []*scanner.Chunk
}

func (s *retainSink) Emit(c *scanner.Chunk) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chunks = append(s.chunks, c)
	return nil
}

// TestCollectorDeliversOwnedFrames: a delivered chunk's record sections
// alias its frame, and a sink may keep the chunk, so the collector must
// read every frame into a buffer of its own. Chunks retained over a
// whole TCP stream must still read as sent once the collect is over; a
// read buffer reused for the next frame would have overwritten them.
func TestCollectorDeliversOwnedFrames(t *testing.T) {
	p := &scanner.Partial{ServerLabel: "ost2"}
	for i := range 12 {
		self := lustre.FID{Seq: lustre.OSTSeqBase + 2, Oid: uint32(i + 1)}
		p.Objects.Append(scanner.Object{FID: self, Ino: ldiskfs.Ino(i + 12), Type: ldiskfs.TypeObject})
		p.Edges.Append(scanner.Edge{Src: uint32(i), Dst: lustre.FID{Seq: lustre.MDTSeqBase, Oid: uint32(100 + i)}, Kind: graph.KindFilterFID})
	}
	p.Issues = []scanner.Issue{{Ino: 40, What: "corrupt filter-fid"}}
	sent := chunksOf(p, 4)
	if len(sent) < 3 {
		t.Fatalf("%d chunks, want at least 3", len(sent))
	}

	col, addr, err := NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	sendErr := make(chan error, 1)
	go func() {
		sendErr <- func() error {
			cs, err := DialChunkStreamContext(context.Background(), addr, RetryPolicy{}, 0)
			if err != nil {
				return err
			}
			defer cs.Close()
			for _, c := range sent {
				if err := cs.Emit(c); err != nil {
					return err
				}
			}
			return nil
		}()
	}()
	var sink retainSink
	if _, err := col.CollectChunksContext(context.Background(), 1, false, sink.Emit); err != nil {
		t.Fatal(err)
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if len(sink.chunks) != len(sent) {
		t.Fatalf("delivered %d chunks, sent %d", len(sink.chunks), len(sent))
	}
	for i, c := range sink.chunks {
		if !reflect.DeepEqual(viewOf(c), viewOf(sent[i])) {
			t.Fatalf("retained chunk %d no longer reads as sent", i)
		}
	}
}

// TestStreamKeepsOneLabel: a stream carries one server. A chunk labelled
// otherwise than the stream's first fails the stream with an error that
// names both labels, answered with an error frame, even where the sink
// would accept it.
func TestStreamKeepsOneLabel(t *testing.T) {
	col, addr, err := NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, c := range []*scanner.Chunk{{ServerLabel: "ost0"}, {ServerLabel: "ost1", Final: true}} {
		if err := WriteFrame(conn, MsgChunk, EncodeChunk(c)); err != nil {
			t.Fatal(err)
		}
	}
	builder := agg.NewBuilder([]string{"ost0", "ost1"})
	// Accepted, the second chunk would complete the stream; the deadline
	// only guards against a hang.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := col.CollectChunksContext(ctx, 1, false, builder.Emit)
	if err == nil || !strings.Contains(err.Error(), `"ost0"`) || !strings.Contains(err.Error(), `"ost1"`) {
		t.Fatalf("collect error %v, want one naming ost0 and ost1", err)
	}
	if len(res.Completed) != 0 || len(res.Errors) != 1 {
		t.Fatalf("completed %v, errors %v; want no completed stream and one error", res.Completed, res.Errors)
	}
	typ, body, err := ReadFrame(conn)
	if err != nil || typ != MsgError {
		t.Fatalf("sender read type %d (%q), %v; want an error frame", typ, body, err)
	}
}
