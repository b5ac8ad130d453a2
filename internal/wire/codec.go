package wire

import (
	"fmt"

	"faultyrank/internal/lustre"
)

// decoder is the sticky-error little-endian reader the chunk, rank-delta
// and telemetry codecs share: the first short read latches err and every
// later read returns zero, so a decode checks the error once at the end.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.b) {
		d.err = fmt.Errorf("wire: truncated message at offset %d", d.off)
		return false
	}
	return true
}

func (d *decoder) u8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := le.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := le.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := le.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) fid() lustre.FID {
	if !d.need(16) {
		return lustre.FID{}
	}
	f := lustre.FIDFromBytes(d.b[d.off:])
	d.off += 16
	return f
}

func (d *decoder) str16() string {
	n := int(d.u16())
	if !d.need(n) {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func appendU16(b []byte, v uint16) []byte { return append(b, byte(v), byte(v>>8)) }
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func appendU64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
