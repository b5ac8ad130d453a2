package telemetry

import (
	"reflect"
	"testing"

	"faultyrank/internal/bincodec/bincodectest"
)

// TestGoldenJournal pins the FRJR format to bytes committed under
// testdata/: Encode(value) must equal the file and Decode(file) must
// deep-equal the value.
func TestGoldenJournal(t *testing.T) {
	// journalFixture is deliberately out of canonical order; the decoded
	// form is the server-sorted one.
	fix := journalFixture()
	want := []JournalSnapshot{fix[1], fix[0]}
	file := bincodectest.Golden(t, "frjr", EncodeJournal(fix))
	got, err := DecodeJournal(file)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("decode golden: %+v, %v", got, err)
	}
}
