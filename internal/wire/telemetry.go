package wire

import (
	"fmt"

	"faultyrank/internal/bincodec"
	"faultyrank/internal/telemetry"
)

// Telemetry is the trailer a scanner ships after its last chunk (and
// best-effort when its context is cancelled): the server's metric
// snapshot plus, optionally, its span tree. The collector gathers these
// tolerantly — a missing or malformed trailer never fails a stream
// whose chunks completed — and the checker merges them into the
// cluster manifest.
type Telemetry struct {
	Server   string
	Snapshot telemetry.Snapshot
	Span     *telemetry.SpanNode
}

// Telemetry encoding (little-endian):
//
//	u16 serverLen | server
//	u32 snapLen   | snapshot blob (telemetry.EncodeSnapshot)
//	u32 spanLen   | span blob (telemetry.EncodeSpanNode; len 0 = absent)
//
// Like the chunk codec, the encoding is bijective: the inner telemetry
// blobs enforce canonical form, so a payload either fails
// DecodeTelemetry or re-encodes to identical bytes (the fuzz target
// leans on this).

// EncodeTelemetry serializes one trailer for transfer.
func EncodeTelemetry(t *Telemetry) []byte {
	snap := telemetry.EncodeSnapshot(t.Snapshot)
	buf := make([]byte, 0, 2+len(t.Server)+8+len(snap)+64)
	buf = bincodec.AppendStr16(buf, t.Server)
	buf = le.AppendUint32(buf, uint32(len(snap)))
	buf = append(buf, snap...)
	if t.Span == nil {
		return le.AppendUint32(buf, 0)
	}
	span := telemetry.EncodeSpanNode(t.Span)
	buf = le.AppendUint32(buf, uint32(len(span)))
	return append(buf, span...)
}

// DecodeTelemetry parses an encoded trailer. Lengths come from an
// untrusted header, so they are bounded against the payload before any
// slice is taken, and the inner blobs go through the telemetry codec's
// own canonical-form and allocation checks.
func DecodeTelemetry(b []byte) (*Telemetry, error) {
	d := bincodec.NewReader(&telemetryFormat, b)
	t := &Telemetry{}
	t.Server = d.Str16()

	snapBlob := d.Bytes(int(d.U32()))
	if err := d.Err(); err != nil {
		return nil, err
	}
	snap, err := telemetry.DecodeSnapshot(snapBlob)
	if err != nil {
		return nil, fmt.Errorf("wire: telemetry trailer: %w", err)
	}
	t.Snapshot = snap
	if spanBlob := d.Bytes(int(d.U32())); len(spanBlob) > 0 {
		if t.Span, err = telemetry.DecodeSpanNode(spanBlob); err != nil {
			return nil, fmt.Errorf("wire: telemetry trailer: %w", err)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return t, nil
}
