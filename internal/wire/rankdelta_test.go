package wire

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"faultyrank/internal/core"
	"faultyrank/internal/graph"
)

func randomRankDelta(r *rand.Rand) *core.RankDelta {
	d := &core.RankDelta{
		Kind:    uint8(1 + r.Intn(7)),
		Part:    uint32(r.Intn(8)),
		Iter:    uint32(r.Intn(100)),
		Base:    r.NormFloat64(),
		PerSink: r.Float64(),
		Diff:    r.Float64(),
		Halt:    r.Intn(2) == 1,

		UnpairedWeight: r.Float64(),
		Smoothing:      r.Float64(),
		Leaky:          r.Intn(2) == 1,
	}
	vec := func(n int) []float64 {
		if n == 0 {
			return nil
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = r.NormFloat64()
		}
		return out
	}
	d.Sink = vec(r.Intn(5))
	d.Ghost = vec(r.Intn(5))
	d.ID = vec(r.Intn(5))
	d.Prop = vec(r.Intn(5))
	if k := r.Intn(4); k > 0 {
		d.Bound = make([][]float64, k)
		for q := range d.Bound {
			d.Bound[q] = vec(r.Intn(4))
		}
	}
	return d
}

// TestRankDeltaRoundTrip: encode/decode is the identity and the
// encoded size always matches WireSize (the accounting used by the
// in-process path to mirror TCP volumes).
func TestRankDeltaRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		d := randomRankDelta(r)
		enc := EncodeRankDelta(d)
		if len(enc) != d.WireSize() {
			t.Fatalf("encoded %d bytes, WireSize says %d (frame %+v)", len(enc), d.WireSize(), d)
		}
		got, err := DecodeRankDelta(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(d, got) {
			t.Fatalf("round trip diverged:\n in: %+v\nout: %+v", d, got)
		}
	}
}

// TestRankDeltaRejects: version, flags, kind, lying counts, trailing
// bytes — every malformed shape must fail, never allocate per a lying
// header, and never be silently normalised. A frame of another codec
// version (a v2 build's, say) fails with the version sentinel, so a
// stale peer is told apart from a corrupt stream.
func TestRankDeltaRejects(t *testing.T) {
	valid := EncodeRankDelta(&core.RankDelta{Kind: core.RankUpA, Sink: []float64{1, 2}})
	const flagsOff = 1 + 1 + 4 + 4 + 5*8

	cases := map[string][]byte{
		"empty":          {},
		"bad kind":       append([]byte{RankDeltaVersion, 0}, valid[2:]...),
		"bad flags":      mutate(valid, flagsOff, 7),
		"trailing bytes": append(append([]byte{}, valid...), 0),
		"truncated":      valid[:len(valid)-3],
	}
	// Lying sink count far past the payload.
	lie := append([]byte{}, valid[:flagsOff+1]...)
	lie = le.AppendUint32(lie, 0xFFFFFF)
	cases["lying count"] = lie

	for name, b := range cases {
		if d, err := DecodeRankDelta(b); err == nil {
			t.Fatalf("%s: decoded %+v from malformed payload", name, d)
		} else if errors.Is(err, ErrRankDeltaVersion) {
			t.Fatalf("%s: malformed payload reported as a version mismatch: %v", name, err)
		}
	}
	for _, v := range []byte{1, 2, 9} {
		if _, err := DecodeRankDelta(mutate(valid, 0, v)); !errors.Is(err, ErrRankDeltaVersion) {
			t.Fatalf("version %d frame: got %v, want ErrRankDeltaVersion", v, err)
		}
	}
}

func mutate(b []byte, off int, v byte) []byte {
	out := append([]byte{}, b...)
	out[off] = v
	return out
}

// serveAll starts one ServeRankWorker goroutine per shard against addr
// and returns a wait function that reports their errors.
func serveAll(t *testing.T, ctx context.Context, addr string, parts []*graph.SubGraph) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	for _, sub := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ServeRankWorker(ctx, addr, sub, 1, 5*time.Second); err != nil {
				t.Errorf("worker %d: %v", sub.Part, err)
			}
		}()
	}
	return wg.Wait
}

// TestRankExchangeTCPExact runs a complete partitioned rank execution
// over the exchange — workers holding their shards dial in, announce
// partitions via Hello, are sent their kernel constants, and the BSP
// protocol crosses the versioned codec — and demands bit-identical ranks vs the
// single-process kernel, under the default constants and under a set
// the workers could not have guessed.
func TestRankExchangeTCPExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 200
	var edges []graph.Edge
	for i := 0; i < 700; i++ {
		src, dst := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		edges = append(edges, graph.Edge{Src: src, Dst: dst})
		if rng.Intn(4) != 0 {
			edges = append(edges, graph.Edge{Src: dst, Dst: src})
		}
	}
	b := graph.NewBidirected(n, edges, 4)
	odd := core.DefaultOptions()
	odd.UnpairedWeight, odd.Smoothing, odd.LeakyDistribution = 0.3, 0.25, true

	for _, opt := range []core.Options{core.DefaultOptions(), odd} {
		want := core.Run(b, opt)
		for _, k := range []int{1, 3} {
			owners := make([]uint16, n)
			for g := range owners {
				owners[g] = uint16(rng.Intn(k))
			}
			plan := graph.PartitionPlan(b, owners, k, 4)

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			x, addr, err := NewRankExchange(5 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			wait := serveAll(t, ctx, addr, plan.Parts)
			links, err := x.AcceptWorkers(ctx, k)
			if err != nil {
				t.Fatalf("k=%d accept: %v", k, err)
			}
			got, rep, err := core.Coordinate(plan, links, opt)
			if err != nil {
				t.Fatalf("k=%d coordinate: %v", k, err)
			}
			wait()
			x.Close()
			cancel()

			for i := range got.IDRank {
				if math.Float64bits(got.IDRank[i]) != math.Float64bits(want.IDRank[i]) ||
					math.Float64bits(got.PropRank[i]) != math.Float64bits(want.PropRank[i]) {
					t.Fatalf("k=%d: rank %d diverges from single-process kernel", k, i)
				}
			}
			if got.Iterations != want.Iterations || got.Converged != want.Converged {
				t.Fatalf("k=%d: iterations %d/%v want %d/%v", k, got.Iterations, got.Converged, want.Iterations, want.Converged)
			}
			if len(rep.Supersteps) != want.Iterations {
				t.Fatalf("k=%d: %d supersteps for %d iterations", k, len(rep.Supersteps), want.Iterations)
			}
		}
	}
}

// dialFrame connects to an exchange the way a worker does and writes one
// raw MsgRankDelta payload as its opening frame.
func dialFrame(t *testing.T, ctx context.Context, addr string, payload []byte) *RankConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, MsgRankDelta, payload); err != nil {
		t.Fatal(err)
	}
	return NewRankConn(ctx, conn, 5*time.Second)
}

func hello(part uint32) []byte {
	return EncodeRankDelta(&core.RankDelta{Kind: core.RankHello, Part: part})
}

// TestRankExchangeRejectsBadHello: the one handshake refuses a duplicate
// or out-of-range partition, an opening frame that is not a Hello, and a
// Hello from a build speaking another codec version — the last with the
// version sentinel.
func TestRankExchangeRejectsBadHello(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	v2 := hello(0)
	v2[0] = 2
	for name, tc := range map[string]struct {
		frames  [][]byte
		version bool
	}{
		"duplicate":     {frames: [][]byte{hello(1), hello(1)}},
		"out-of-range":  {frames: [][]byte{hello(0), hello(7)}},
		"not a hello":   {frames: [][]byte{EncodeRankDelta(&core.RankDelta{Kind: core.RankUpA})}},
		"stale version": {frames: [][]byte{v2}, version: true},
	} {
		x, addr, err := NewRankExchange(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range tc.frames {
			defer dialFrame(t, ctx, addr, f).Close()
		}
		_, err = x.AcceptWorkers(ctx, 2)
		if err == nil {
			t.Fatalf("%s: handshake accepted", name)
		}
		if errors.Is(err, ErrRankDeltaVersion) != tc.version {
			t.Fatalf("%s: version sentinel misreported: %v", name, err)
		}
		x.Close()
	}
}

// TestRankExchangeBindAddress: the exchange takes a partition's Hello
// from whoever dials in, so it listens on loopback only, on a fresh port
// per exchange.
func TestRankExchangeBindAddress(t *testing.T) {
	x1, a1, err := NewRankExchange(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer x1.Close()
	x2, a2, err := NewRankExchange(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer x2.Close()
	for _, addr := range []string{a1, a2} {
		if host, _, err := net.SplitHostPort(addr); err != nil || host != "127.0.0.1" {
			t.Fatalf("exchange bound to %q (%v), want loopback", addr, err)
		}
	}
	if a1 == a2 {
		t.Fatalf("two exchanges share %s", a1)
	}
}

// TestRankExchangeCancelMidDial: cancelling the handshake context while
// workers are still dialing in closes the exchange from the context
// watcher's goroutine while the accept loop is adding links. That used
// to be an unsynchronised read and append of the link list (a -race
// failure), and a link accepted after the close was never closed. Every
// dialed link must observe the teardown, and closing twice is safe.
func TestRankExchangeCancelMidDial(t *testing.T) {
	const k = 9 // one more than ever dials, so the accept cannot complete
	x, addr, err := NewRankExchange(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	dialed := make(chan *RankConn, k-1)
	for p := 0; p < k-1; p++ {
		go func(p int) {
			// The workers outlive the handshake context on purpose: their
			// links must be closed by the exchange, not by their own ctx.
			var link *RankConn
			if conn, err := net.Dial("tcp", addr); err == nil { // else refused: the listener was already closed
				link = NewRankConn(context.Background(), conn, 5*time.Second)
				_ = link.Send(&core.RankDelta{Kind: core.RankHello, Part: uint32(p)})
			}
			dialed <- link
		}(p)
	}
	accepted := make(chan error, 1)
	go func() {
		_, err := x.AcceptWorkers(ctx, k)
		accepted <- err
	}()

	first := <-dialed
	cancel()
	if err := <-accepted; err == nil {
		t.Fatal("accept succeeded with a worker missing and its context cancelled")
	}
	// The failed handshake's owner closes the exchange (as the checker
	// does), possibly a second time after the context watcher.
	x.Close()
	for i, link := 0, first; i < k-1; i++ {
		if i > 0 {
			link = <-dialed
		}
		if link == nil {
			continue
		}
		if _, err := link.Recv(); err == nil {
			t.Error("a dialed link received a frame from a cancelled exchange")
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Errorf("a dialed link was left open by the closed exchange: %v", err)
		}
		link.Close()
	}
}
