package wire

import (
	"errors"

	"faultyrank/internal/bincodec"
	"faultyrank/internal/lustre"
)

// ErrRankDeltaVersion is wrapped when a superstep frame carries another
// codec version — the named signal that a rank peer and its coordinator
// are different builds, as opposed to a corrupt stream.
var ErrRankDeltaVersion = errors.New("unsupported rank delta version")

// The wire layer's payload formats, as bincodec reports their decode
// errors. Only the rank delta has a sentinel: any other frame that fails
// to decode fails its stream, and nobody dispatches on why.
var (
	chunkFormat     = bincodec.Format{Name: "wire: chunk"}
	rankDeltaFormat = bincodec.Format{Name: "wire: rank delta", Version: ErrRankDeltaVersion}
	telemetryFormat = bincodec.Format{Name: "wire: telemetry trailer"}
	fidInfoFormat   = bincodec.Format{Name: "wire: FID info"}
	statBatchFormat = bincodec.Format{Name: "wire: stat batch"}
)

// fid reads a FID in its fixed 16-byte form (lustre.FID.Bytes).
func fid(d *bincodec.Reader) lustre.FID {
	return lustre.FID{Seq: d.U64(), Oid: d.U32(), Ver: d.U32()}
}

// putFID writes a FID's 16-byte form (lustre.FID.Bytes) at the start
// of b, a record the caller has sized: in place, not through an array
// copy, which runs the chunk encoder at less than half the speed.
func putFID(b []byte, f lustre.FID) {
	_ = b[15]
	le.PutUint64(b, f.Seq)
	le.PutUint32(b[8:], f.Oid)
	le.PutUint32(b[12:], f.Ver)
}
