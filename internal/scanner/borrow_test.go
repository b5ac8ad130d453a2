package scanner_test

import (
	"context"
	"testing"

	"faultyrank/internal/agg"
	"faultyrank/internal/inject"
	"faultyrank/internal/scanner"
	"faultyrank/internal/wire"
)

// TestWhoBorrows pins which sinks opt into borrowing the scanner's
// scratch chunk: the wire stream, which has encoded a chunk before Emit
// returns, the partial sink, which has copied it, and nothing that keeps
// one. A retaining sink that borrowed would hold slices the next chunk
// overwrites.
func TestWhoBorrows(t *testing.T) {
	for _, s := range []struct {
		name    string
		sink    scanner.Sink
		borrows bool
	}{
		{"wire.ChunkStream", &wire.ChunkStream{}, true},
		{"agg.Builder", agg.NewBuilder(nil), false},
		{"scanner.PartialSink", &scanner.PartialSink{}, true},
		{"inject fault stream", (&inject.NetFault{}).WrapStream(context.Background(), nil), false},
	} {
		if _, ok := s.sink.(scanner.Borrower); ok != s.borrows {
			t.Errorf("%s: Borrower = %v, want %v", s.name, ok, s.borrows)
		}
	}
}
