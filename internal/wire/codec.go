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
	fidInfoFormat   = bincodec.Format{Name: "wire: FID info"}
	statBatchFormat = bincodec.Format{Name: "wire: stat batch"}
)

// fid reads a FID in its fixed 16-byte form (lustre.FID.Bytes).
func fid(d *bincodec.Reader) lustre.FID {
	return lustre.FID{Seq: d.U64(), Oid: d.U32(), Ver: d.U32()}
}
