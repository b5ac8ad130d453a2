package bincodectest

import (
	"bytes"
	"reflect"
	"testing"
)

// RoundTrip is the contract every decoder of untrusted bytes in the tree
// is fuzzed against. Whatever blob holds, decode must not panic, and
// either rejects it — returning the zero value with the error — or
// accepts it, in which case the codec is a bijection on it: encode gives
// back blob byte for byte, and decoding that again gives an equal value.
//
// "Equal" is reflect.DeepEqual, falling back to comparing the two
// values' encodings: DeepEqual cannot call a value holding a NaN equal
// to itself, and several formats carry raw float bit patterns.
func RoundTrip[T any](t testing.TB, blob []byte, decode func([]byte) (T, error), encode func(T) []byte) {
	t.Helper()
	v, err := decode(blob)
	if err != nil {
		if !reflect.ValueOf(&v).Elem().IsZero() {
			t.Fatalf("decode returned both a value and an error (%v)", err)
		}
		return
	}
	enc := encode(v)
	if !bytes.Equal(enc, blob) {
		t.Fatalf("decode accepted a non-canonical blob: re-encoding differs\n in %x\nout %x", blob, enc)
	}
	again, err := decode(enc)
	if err != nil {
		t.Fatalf("re-encoded blob failed to decode: %v", err)
	}
	if !reflect.DeepEqual(v, again) && !bytes.Equal(encode(again), enc) {
		t.Fatal("decode → encode → decode is not stable")
	}
}
