// Package bincodec is the one bounded little-endian reader under every
// binary format in the tree — the wire frames (chunk, rank delta,
// stat replies) and the versioned blobs (FRTM, FRJR, FRDB, FRSN). It
// owns the three guards every decoder of untrusted
// bytes needs and used to hand-write: no read past the payload, no
// allocation sized from a count the payload cannot back, no accepted
// blob with bytes left over. What a format *means* — its field order,
// canonical-order and range checks — stays in the owning package as
// plain code over a *Reader. Writers are binary.LittleEndian.AppendUint*
// plus AppendStr16.
//
// The package imports only the standard library, so every layer
// (telemetry included, which wire imports) can use it.
package bincodec

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
)

// Format names one binary format to its Readers: the prefix its decode
// errors carry and the sentinels they wrap, so a caller's
// errors.Is(err, pkg.ErrX) holds whichever guard fired.
type Format struct {
	// Name prefixes every error, e.g. "wire: chunk" or "agg".
	Name string
	// Malformed, when non-nil, is wrapped by every error the blob's
	// content causes: truncation, an implausible count, trailing bytes,
	// and whatever the format's own checks report through Failf.
	Malformed error
	// Version, when non-nil, is wrapped instead when Header meets a
	// foreign magic or version — the mixed-build signal, as opposed to
	// corruption.
	Version error
}

func (f *Format) errorf(sentinel error, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if sentinel == nil {
		return fmt.Errorf("%s: %s", f.Name, msg)
	}
	return fmt.Errorf("%s: %s: %w", f.Name, msg, sentinel)
}

// Reader decodes one blob. The first failure latches: every later read
// returns the zero value and changes nothing, so a decoder reads
// straight through and checks Finish (or Err) once at the end.
type Reader struct {
	f   *Format
	b   []byte // nil once failed, so every later read takes the short path
	off int

	// The first failure. A truncation or implausible count is recorded
	// as (failAt, failN, failMin) and only rendered into err by Err, so
	// the failing path of a hostile header allocates nothing at all.
	failed  bool
	failAt  int
	failN   uint64 // bytes wanted, or the record count when failMin > 0
	failMin int
	err     error
}

// NewReader returns a Reader over b reporting errors as f describes.
// The Reader aliases b; it never writes to it.
func NewReader(f *Format, b []byte) *Reader { return &Reader{f: f, b: b} }

// short latches a read of n bytes (or n records of at least min bytes)
// that the payload cannot satisfy.
func (r *Reader) short(n uint64, min int) {
	if !r.failed {
		r.failed, r.failAt, r.failN, r.failMin = true, r.off, n, min
		r.b, r.off = nil, 0
	}
}

// Failf latches a format-specific failure (a canonical-order or range
// check the owning package makes) unless an earlier one is latched.
func (r *Reader) Failf(format string, args ...any) {
	r.failWith(r.f.Malformed, format, args...)
}

func (r *Reader) failWith(sentinel error, format string, args ...any) {
	if !r.failed {
		r.failed, r.err = true, r.f.errorf(sentinel, format, args...)
		r.b, r.off = nil, 0
	}
}

// Err returns the first failure, nil while every read has succeeded.
func (r *Reader) Err() error {
	if r.failed && r.err == nil {
		r.render()
	}
	return r.err
}

func (r *Reader) render() {
	if r.failMin > 0 {
		r.err = r.f.errorf(r.f.Malformed, "implausible count %d at offset %d (records are at least %d bytes)",
			r.failN, r.failAt, r.failMin)
		return
	}
	r.err = r.f.errorf(r.f.Malformed, "truncated at offset %d (%d more bytes needed)", r.failAt, r.failN)
}

// Finish ends a decode: the first failure if there was one, else an
// error when undecoded bytes remain.
func (r *Reader) Finish() error {
	if err := r.Err(); err != nil {
		return err
	}
	if n := r.Remaining(); n != 0 {
		return r.f.errorf(r.f.Malformed, "%d trailing bytes", n)
	}
	return nil
}

// Remaining reports the undecoded byte count (0 once failed).
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// The fixed-width reads stay under the inliner's budget — the chunk
// decoder calls them per object and per edge across the package
// boundary — and never allocate.

// U8 reads one byte.
func (r *Reader) U8() byte {
	if len(r.b)-r.off < 1 {
		r.short(1, 0)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if len(r.b)-r.off < 2 {
		r.short(2, 0)
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if len(r.b)-r.off < 4 {
		r.short(4, 0)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if len(r.b)-r.off < 8 {
		r.short(8, 0)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// F64 reads a float64 stored as its IEEE-754 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads n bytes and returns them as a slice aliasing the input
// (copy it to keep it past the input's lifetime). A negative n or one
// beyond the remaining payload latches a failure and returns nil — the
// length usually comes from an untrusted header, and int(u32) is
// negative on a 32-bit build.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || n > len(r.b)-r.off {
		r.short(uint64(n), 0)
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// Str16 reads a u16-length-prefixed string.
func (r *Reader) Str16() string { return string(r.Bytes(int(r.U16()))) }

// Count is the allocation guard for a count n read from an untrusted
// header whose records each occupy at least minRecord (> 0) encoded
// bytes: if the bytes left cannot hold them it latches a failure and
// returns 0, else it returns n as an int that is safe to make() with
// and to loop to.
func (r *Reader) Count(n uint64, minRecord int) int {
	if n > uint64(len(r.b)-r.off)/uint64(minRecord) {
		r.short(n, minRecord)
		return 0
	}
	return int(n)
}

// Header reads magic followed by a one-byte version and latches a
// Version failure when either is foreign. Formats with no magic (the
// rank delta's bare version byte) pass "".
func (r *Reader) Header(magic string, version byte) {
	h := r.Bytes(len(magic) + 1)
	if h == nil {
		return
	}
	if got := h[:len(magic)]; string(got) != magic {
		r.failWith(r.f.Version, "bad magic %q", got)
	} else if v := h[len(magic)]; v != version {
		r.failWith(r.f.Version, "unsupported version %d (have %d)", v, version)
	}
}

// AppendStr16 appends s with a u16 length prefix, the writer-side
// counterpart of Str16. The caller guarantees len(s) fits.
func AppendStr16(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// WriteFileAtomic writes blob to path through path+".tmp" and a rename,
// so a reader — or a crash mid-write — never observes a torn file.
func WriteFileAtomic(path string, blob []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
