package bincodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	errMalformed = errors.New("malformed test blob")
	errVersion   = errors.New("unsupported test blob version")
	testFormat   = Format{Name: "test", Malformed: errMalformed, Version: errVersion}
)

func TestReadsRoundTripAppends(t *testing.T) {
	le := binary.LittleEndian
	b := []byte("MAGC\x03")
	b = append(b, 0xAB)
	b = le.AppendUint16(b, 0xBEEF)
	b = le.AppendUint32(b, 0xDEADBEEF)
	b = le.AppendUint64(b, 0x0123456789ABCDEF)
	b = le.AppendUint64(b, math.Float64bits(-0.375))
	b = AppendStr16(b, "héllo")
	b = AppendStr16(b, "")
	b = append(b, 1, 2, 3)

	d := NewReader(&testFormat, b)
	d.Header("MAGC", 3)
	if v := d.U8(); v != 0xAB {
		t.Errorf("U8 = %#x", v)
	}
	if v := d.U16(); v != 0xBEEF {
		t.Errorf("U16 = %#x", v)
	}
	if v := d.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %#x", v)
	}
	if v := d.U64(); v != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", v)
	}
	if v := d.F64(); v != -0.375 {
		t.Errorf("F64 = %v", v)
	}
	if v := d.Str16(); v != "héllo" {
		t.Errorf("Str16 = %q", v)
	}
	if v := d.Str16(); v != "" {
		t.Errorf("empty Str16 = %q", v)
	}
	if d.Remaining() != 3 {
		t.Errorf("Remaining = %d, want 3", d.Remaining())
	}
	if n := d.Count(3, 1); n != 3 {
		t.Errorf("Count(3, 1) = %d with 3 bytes left", n)
	}
	if v := d.Bytes(3); !bytes.Equal(v, []byte{1, 2, 3}) || cap(v) != 3 {
		t.Errorf("Bytes = %v (cap %d)", v, cap(v))
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish on a fully consumed blob: %v", err)
	}
}

// TestBadLengthNeverSlices: a negative length (what int(u32) is on a
// 32-bit build) or one past the payload latches the truncation error and
// returns nil — it must not reach a slice expression.
func TestBadLengthNeverSlices(t *testing.T) {
	for _, n := range []int{-1, math.MinInt, 5, math.MaxInt} {
		d := NewReader(&testFormat, []byte{1, 2, 3, 4})
		d.U8()
		if v := d.Bytes(n); v != nil {
			t.Errorf("Bytes(%d) = %v with 3 bytes left", n, v)
		}
		err := d.Err()
		if !errors.Is(err, errMalformed) || !strings.Contains(err.Error(), "truncated at offset 1") {
			t.Errorf("Bytes(%d): err %v", n, err)
		}
	}
	// The whole remainder and zero bytes are fine.
	d := NewReader(&testFormat, []byte{1, 2, 3})
	if len(d.Bytes(0)) != 0 || len(d.Bytes(3)) != 3 || d.Finish() != nil {
		t.Errorf("in-range Bytes failed: %v", d.Err())
	}
}

// TestCountGuard: Count bounds a header's count against the bytes left,
// not the whole payload, and the failing path allocates nothing — the
// error is only rendered when somebody asks for it.
func TestCountGuard(t *testing.T) {
	blob := make([]byte, 4+64)
	binary.LittleEndian.PutUint32(blob, 0xFFFFFFFF)

	d := NewReader(&testFormat, blob)
	d.U32()
	if n := d.Count(4, 16); n != 4 {
		t.Errorf("Count(4, 16) = %d with 64 bytes left", n)
	}
	if n := d.Count(5, 16); n != 0 || d.Err() == nil {
		t.Errorf("Count(5, 16) = %d, err %v with 64 bytes left (68 in the blob)", n, d.Err())
	}

	var got int
	allocs := testing.AllocsPerRun(100, func() {
		d := Reader{f: &testFormat, b: blob}
		got = d.Count(uint64(d.U32()), 16)
		got += d.Count(math.MaxUint64, 1) + int(d.U64()) + len(d.Bytes(8))
	})
	if allocs != 0 || got != 0 {
		t.Errorf("lying header: %v allocations, %d records, want 0 and 0", allocs, got)
	}

	d = NewReader(&testFormat, blob)
	d.Count(uint64(d.U32()), 16)
	err := d.Finish()
	if !errors.Is(err, errMalformed) || !strings.Contains(err.Error(), "implausible count 4294967295 at offset 4") {
		t.Errorf("lying header: err %v", err)
	}
}

// TestFirstErrorSticks: after the first failure every read returns the
// zero value, later failures do not replace it, and Finish reports it
// rather than the bytes the failure left unread.
func TestFirstErrorSticks(t *testing.T) {
	d := NewReader(&testFormat, []byte{7, 0, 0, 0, 9, 9, 9})
	d.U32()
	d.Failf("first %d", 1)
	first := d.Err()
	if first == nil || !errors.Is(first, errMalformed) || first.Error() != "test: first 1: malformed test blob" {
		t.Fatalf("Failf: %v", first)
	}
	d.Failf("second")
	d.Header("MAGC", 1)
	if d.U8() != 0 || d.U16() != 0 || d.U32() != 0 || d.U64() != 0 || d.F64() != 0 ||
		d.Str16() != "" || d.Bytes(1) != nil || d.Count(1, 1) != 0 || d.Remaining() != 0 {
		t.Error("a read after the first error returned a non-zero value")
	}
	if d.Err() != first || d.Finish() != first {
		t.Errorf("first error replaced: Err %v, Finish %v", d.Err(), d.Finish())
	}

	// A truncation latches the same way, and a later Failf cannot hide it.
	d = NewReader(&testFormat, []byte{1, 2})
	d.U32()
	d.Failf("later")
	if err := d.Finish(); !strings.Contains(err.Error(), "truncated at offset 0") {
		t.Errorf("truncation replaced: %v", err)
	}
}

func TestFinishReportsTrailingBytes(t *testing.T) {
	d := NewReader(&testFormat, []byte{1, 2, 3})
	d.U8()
	err := d.Finish()
	if !errors.Is(err, errMalformed) || !strings.Contains(err.Error(), "2 trailing bytes") {
		t.Errorf("Finish with 2 bytes unread: %v", err)
	}
}

func TestHeader(t *testing.T) {
	for _, tc := range []struct {
		name, blob string
		want       error
		text       string
	}{
		{"ok", "MAGC\x02rest", nil, ""},
		{"bad magic", "MAGX\x02rest", errVersion, `bad magic "MAGX"`},
		{"wrong version", "MAGC\x03rest", errVersion, "unsupported version 3 (have 2)"},
		{"short", "MAGC", errMalformed, "truncated at offset 0"},
		{"empty", "", errMalformed, "truncated at offset 0"},
	} {
		d := NewReader(&testFormat, []byte(tc.blob))
		d.Header("MAGC", 2)
		err := d.Err()
		if tc.want == nil {
			if err != nil || d.Remaining() != 4 {
				t.Errorf("%s: err %v, %d left", tc.name, err, d.Remaining())
			}
			continue
		}
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.text) {
			t.Errorf("%s: err %v, want %v containing %q", tc.name, err, tc.want, tc.text)
		}
	}

	// A format with no magic is a bare version byte; one with no
	// sentinels still names itself.
	bare := Format{Name: "bare"}
	d := NewReader(&bare, []byte{2})
	d.Header("", 2)
	if err := d.Finish(); err != nil {
		t.Errorf("bare version byte: %v", err)
	}
	d = NewReader(&bare, []byte{1})
	d.Header("", 2)
	if err := d.Err(); err == nil || err.Error() != "bare: unsupported version 1 (have 2)" {
		t.Errorf("bare wrong version: %v", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob.bin")
	for _, want := range []string{"first", "second, longer"} {
		if err := WriteFileAtomic(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("read back %q, %v", got, err)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("temp file left behind (stat err %v)", err)
		}
	}
	if err := WriteFileAtomic(filepath.Join(t.TempDir(), "no", "such", "dir"), nil); !os.IsNotExist(err) {
		t.Fatalf("missing directory: %v", err)
	}
}
