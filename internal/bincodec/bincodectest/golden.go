// Package bincodectest holds the test-side contracts every binary format
// in the tree is held to: a committed golden encoding per format, and
// the round-trip law the decoder fuzz targets assert.
package bincodectest

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/*.golden from the current encoders instead of comparing against them")

// Golden asserts that enc is byte-identical to the committed file
// testdata/<name>.golden of the package under test and returns the
// file's bytes, which the caller decodes and compares against the value
// it encoded — so a codec change is checked against bytes written by
// the code that shipped, not against itself. Run the package's tests
// with -update-golden to (re)write the files; do that only for a
// deliberate format change that also bumps the format's version.
func Golden(t testing.TB, name string, enc []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s: %v (run with -update-golden to create it)", name, err)
	}
	if !bytes.Equal(enc, file) {
		t.Fatalf("golden %s: encoding differs from the committed bytes\n got %x\nwant %x", name, enc, file)
	}
	return file
}
