// Package wire is the network layer shared by both checkers. It defines
// a length-prefixed binary framing over TCP; the chunk stream on which
// each scanner ships its partial graph to the collector in a few large
// frames (the paper's §V-C explanation for FaultyRank's low network
// cost); the versioned
// rank-delta codec and exchange of the partitioned rank supersteps; and
// a per-object metadata RPC (StatFID) with which the LFSCK baseline
// performs its one-round-trip-per-object cross-checks, reproducing the
// high fan-out that makes the original LFSCK slow.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

var le = binary.LittleEndian

// Message types.
const (
	// Frame type 1 was the whole-partial bulk transfer the chunk stream
	// superseded; it stays reserved so every later type keeps its wire
	// value.
	_ byte = iota + 1
	// MsgAck acknowledges a completed chunk stream.
	MsgAck
	// MsgStatFID requests the metadata of one FID (16-byte payload).
	MsgStatFID
	// MsgFIDInfo answers MsgStatFID.
	MsgFIDInfo
	// MsgError carries a textual error.
	MsgError
	// MsgBye closes a session.
	MsgBye
	// MsgStatBatch requests the metadata of many FIDs in one round trip
	// (u32 count, count × 16-byte FIDs).
	MsgStatBatch
	// MsgFIDInfoBatch answers MsgStatBatch (count × length-prefixed
	// encoded FIDInfo records).
	MsgFIDInfoBatch
	// MsgChunk carries one encoded scanner.Chunk of a streamed partial
	// graph; the chunk marked final ends the stream and is acked.
	MsgChunk
	// Frame type 10 carried a scanner's telemetry trailer until every
	// scanner's manifest section was built in the checker's own
	// process; it stays reserved like type 1.
	_
	// MsgRankDelta carries one superstep frame of the partitioned rank
	// exchange (core.RankDelta, versioned codec in rankdelta.go).
	MsgRankDelta
	// Frame type 12 carried a scanner's journal lane as a trailer; it
	// is reserved like type 10.
	_
	// Frame type 13 carried a rank worker's encoded shard until the
	// workers took their shard in process; it stays reserved like type 1.
	_
	// msgTypes is one past the last frame type in use or reserved.
	msgTypes
)

// MaxFrame bounds a single frame (a partial graph of a multi-million
// inode server fits comfortably; this is a sanity guard, not a limit
// the protocol design relies on).
const MaxFrame = 1 << 31

// ErrFrameTooLarge is returned for frames exceeding MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame too large")

// frameHeader is the size of a frame's header: u8 type | u32 length.
const frameHeader = 5

// WriteFrame writes one framed message: header, then payload.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [frameHeader]byte
	if err := sealFrame(hdr[:], typ, len(payload)); err != nil {
		return err
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// sealFrame fills in a frame's header. A sender that builds its payload
// behind frameHeader reserved bytes of one buffer (ChunkStream does)
// seals that buffer and ships the frame in a single Write.
func sealFrame(hdr []byte, typ byte, payloadLen int) error {
	if int64(payloadLen) >= MaxFrame {
		return ErrFrameTooLarge
	}
	hdr[0] = typ
	le.PutUint32(hdr[1:], uint32(payloadLen))
	return nil
}

// readBatch bounds how much payload ReadFrame allocates ahead of the
// bytes actually arriving.
const readBatch = 1 << 20

// ReadFrame reads one framed message into a payload of its own. The
// length comes from an untrusted header, so the payload grows in
// bounded batches as bytes arrive (the edgelist.ReadBinary discipline):
// a lying header on a short or hostile stream costs at most one batch
// before the truncation error, never a MaxFrame-sized allocation.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int64(le.Uint32(hdr[1:]))
	if n >= MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	var payload []byte
	for int64(len(payload)) < n {
		off := len(payload)
		end := int(min(n, int64(max(cap(payload), off+readBatch))))
		payload = slices.Grow(payload, end-off)[:end]
		if _, err := io.ReadFull(r, payload[off:]); err != nil {
			return 0, nil, fmt.Errorf("wire: frame truncated at byte %d of %d: %w", off, n, err)
		}
	}
	return hdr[0], payload, nil
}

// WriteError frames err as a MsgError.
func WriteError(w io.Writer, err error) error {
	return WriteFrame(w, MsgError, []byte(err.Error()))
}

// AsError converts a received (type, payload) into a Go error when the
// frame is MsgError, else nil.
func AsError(typ byte, payload []byte) error {
	if typ == MsgError {
		return fmt.Errorf("wire: remote error: %s", payload)
	}
	return nil
}
