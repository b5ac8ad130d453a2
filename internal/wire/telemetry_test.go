package wire

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"faultyrank/internal/agg"
	"faultyrank/internal/scanner"
	"faultyrank/internal/telemetry"
)

func sampleTelemetry(server string) *Telemetry {
	reg := telemetry.NewRegistry()
	reg.Counter("scanner_inodes_scanned_total").Add(2048)
	reg.Counter("wire_frames_sent_total").Add(12)
	reg.Gauge("agg_interner_size").Set(77)
	reg.Histogram("wire_frame_write_seconds", []float64{0.001, 0.01}).Observe(0.002)
	return &Telemetry{
		Server:   server,
		Snapshot: reg.Snapshot().Labeled(server),
		Span: &telemetry.SpanNode{
			Name: "scan:" + server, Duration: 3 * time.Second, Seconds: 3,
			Children: []telemetry.SpanNode{{Name: "walk", Duration: time.Second, Seconds: 1}},
		},
	}
}

func TestTelemetryCodecRoundtrip(t *testing.T) {
	for _, tr := range []*Telemetry{
		sampleTelemetry("ost3"),
		{Server: "mdt0", Snapshot: telemetry.Snapshot{Counters: []telemetry.CounterValue{{Name: "c", Value: 1}}}},
		{}, // the empty trailer a source-less stream ships
	} {
		enc := EncodeTelemetry(tr)
		got, err := DecodeTelemetry(enc)
		if err != nil {
			t.Fatalf("decode %q: %v", tr.Server, err)
		}
		if !reflect.DeepEqual(tr, got) {
			t.Fatalf("roundtrip diverges for %q:\n%+v\n%+v", tr.Server, tr, got)
		}
		if !bytes.Equal(enc, EncodeTelemetry(got)) {
			t.Fatalf("re-encode diverges for %q", tr.Server)
		}
	}
}

func TestDecodeTelemetryRejects(t *testing.T) {
	valid := EncodeTelemetry(sampleTelemetry("ost0"))
	if _, err := DecodeTelemetry(valid[:len(valid)-2]); err == nil {
		t.Error("truncated trailer decoded")
	}
	if _, err := DecodeTelemetry(append(append([]byte(nil), valid...), 9)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Lying snapshot length far past the payload must fail fast.
	lie := le.AppendUint16(nil, 4)
	lie = append(lie, "ost0"...)
	lie = le.AppendUint32(lie, 0xFFFFFF00)
	if _, err := DecodeTelemetry(lie); err == nil {
		t.Error("lying snapshot length accepted")
	}
}

// TestChunkStreamShipsTrailer: streams with a telemetry source deliver
// their snapshots to the collector alongside the graph data; a stream
// without a source costs nothing and yields no entry.
func TestChunkStreamShipsTrailer(t *testing.T) {
	r := rand.New(rand.NewSource(21))
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
	for i, p := range parts {
		go func(i int, p *scanner.Partial) {
			errCh <- func() error {
				cs, err := DialChunkStreamContext(context.Background(), addr, RetryPolicy{}, 0)
				if err != nil {
					return err
				}
				defer cs.Close()
				if p.ServerLabel != "ost1" { // ost1 ships no telemetry
					label := p.ServerLabel
					cs.SetTelemetrySource(func() *Telemetry { return sampleTelemetry(label) })
				}
				for _, ch := range chunksOf(p, 5) {
					if err := cs.Emit(ch); err != nil {
						return err
					}
				}
				return nil
			}()
		}(i, p)
	}
	res, err := col.CollectChunksContext(context.Background(), len(parts), false, builder.Emit)
	if err != nil {
		t.Fatal(err)
	}
	for range parts {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if len(res.Telemetry) != 2 {
		t.Fatalf("telemetry entries = %d, want 2 (%+v)", len(res.Telemetry), res.Telemetry)
	}
	if res.Telemetry[0].Server != "mdt0" || res.Telemetry[1].Server != "ost0" {
		t.Fatalf("telemetry servers = %q, %q", res.Telemetry[0].Server, res.Telemetry[1].Server)
	}
	want := sampleTelemetry("mdt0")
	if !reflect.DeepEqual(res.Telemetry[0].Snapshot, want.Snapshot) {
		t.Fatalf("mdt0 snapshot diverges:\n%+v\n%+v", res.Telemetry[0].Snapshot, want.Snapshot)
	}
	if res.Telemetry[0].Span == nil || res.Telemetry[0].Span.Find("walk") == nil {
		t.Fatalf("mdt0 span tree lost: %+v", res.Telemetry[0].Span)
	}
	// The graph data must be untouched by the trailer protocol.
	got, err := builder.Partials()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if !reflect.DeepEqual(p, got[i]) {
			t.Fatalf("server %s: partial diverges with trailers enabled", labels[i])
		}
	}
}

// TestSendTelemetryMidStream: the best-effort failure-path trailer is
// recorded even when the stream never completes — and the stream still
// counts as failed, not completed.
func TestSendTelemetryMidStream(t *testing.T) {
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
			if err := cs.Emit(&scanner.Chunk{ServerLabel: "ost0", Seq: 0}); err != nil {
				return err
			}
			if err := cs.SendTelemetry(sampleTelemetry("ost0")); err != nil {
				return err
			}
			return cs.Close() // die without a final chunk
		}()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	builder := agg.NewBuilder([]string{"ost0"})
	res, err := col.CollectChunksContext(ctx, 1, true, builder.Emit)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 0 {
		t.Fatalf("aborted stream reported completed: %v", res.Completed)
	}
	if len(res.Telemetry) != 1 || res.Telemetry[0].Server != "ost0" {
		t.Fatalf("mid-stream telemetry lost: %+v", res.Telemetry)
	}
	if got := res.Telemetry[0].Snapshot.Counter("scanner_inodes_scanned_total"); got != 2048 {
		t.Fatalf("recorded snapshot counter = %d, want 2048", got)
	}
}

// TestTrailerMalformedTolerated: a corrupt telemetry frame mid-stream
// is dropped without failing the stream; the graph data still lands and
// the stream completes.
func TestTrailerMalformedTolerated(t *testing.T) {
	col, addr, err := NewCollector()
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	r := rand.New(rand.NewSource(5))
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
			chunks := chunksOf(p, 5)
			for _, ch := range chunks[:len(chunks)-1] {
				if err := cs.Emit(ch); err != nil {
					return err
				}
			}
			// A garbage telemetry frame between chunks.
			if err := WriteFrame(cs.conn, MsgTelemetry, []byte{0xba, 0xad}); err != nil {
				return err
			}
			return cs.Emit(chunks[len(chunks)-1])
		}()
	}()

	builder := agg.NewBuilder([]string{"mdt0"})
	res, err := col.CollectChunksContext(context.Background(), 1, false, builder.Emit)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != 1 || res.Completed[0] != "mdt0" {
		t.Fatalf("completed = %v", res.Completed)
	}
	if len(res.Telemetry) != 0 {
		t.Fatalf("malformed trailer recorded: %+v", res.Telemetry)
	}
}
