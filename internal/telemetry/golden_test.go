package telemetry

import (
	"reflect"
	"testing"
	"time"

	"faultyrank/internal/bincodec/bincodectest"
)

// The golden tests pin the FRTM and FRJR formats to bytes committed
// under testdata/: Encode(value) must equal the file and Decode(file)
// must deep-equal the value.

func TestGoldenSnapshot(t *testing.T) {
	want := sampleSnapshot()
	file := bincodectest.Golden(t, "frtm_snapshot", EncodeSnapshot(want))
	got, err := DecodeSnapshot(file)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("decode golden: %+v, %v", got, err)
	}
}

func TestGoldenSpan(t *testing.T) {
	want := &SpanNode{
		Name: "run", Duration: 5 * time.Second, Seconds: 5,
		Children: []SpanNode{
			{Name: "scan", StartOffset: time.Millisecond, Duration: 3 * time.Second, Seconds: 3,
				Children: []SpanNode{{Name: "scan:ost0", Duration: time.Second, Seconds: 1}}},
			{Name: "aggregate", StartOffset: 3 * time.Second, Duration: time.Second, Seconds: 1},
		},
	}
	file := bincodectest.Golden(t, "frtm_span", EncodeSpanNode(want))
	got, err := DecodeSpanNode(file)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("decode golden: %+v, %v", got, err)
	}
}

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
