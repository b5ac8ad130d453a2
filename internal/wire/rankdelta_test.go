package wire

import (
	"bytes"
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
		Sum:     uint64(r.Int63()),
		Halt:    r.Intn(2) == 1,
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

// TestRankDeltaRejects: version, halt, kind, lying counts, trailing
// bytes — every malformed shape must fail, never allocate per a lying
// header, and never be silently normalised.
func TestRankDeltaRejects(t *testing.T) {
	valid := EncodeRankDelta(&core.RankDelta{Kind: core.RankUpA, Sink: []float64{1, 2}})

	cases := map[string][]byte{
		"empty":          {},
		"bad version":    append([]byte{9}, valid[1:]...),
		"stale version":  append([]byte{1}, valid[1:]...),
		"bad kind":       append([]byte{RankDeltaVersion, 0}, valid[2:]...),
		"bad halt":       mutate(valid, 42, 7),
		"trailing bytes": append(append([]byte{}, valid...), 0),
		"truncated":      valid[:len(valid)-3],
	}
	// Lying sink count far past the payload.
	lie := append([]byte{}, valid[:43]...)
	lie = le.AppendUint32(lie, 0xFFFFFF)
	cases["lying count"] = lie

	for name, b := range cases {
		if d, err := DecodeRankDelta(b); err == nil {
			t.Fatalf("%s: decoded %+v from malformed payload", name, d)
		}
	}
}

func mutate(b []byte, off int, v byte) []byte {
	out := append([]byte{}, b...)
	out[off] = v
	return out
}

// TestRankExchangeTCPExact runs a complete partitioned rank execution
// over real TCP links — workers dial in, announce partitions via
// Hello, and the BSP protocol crosses the versioned codec — and
// demands bit-identical ranks vs the single-process kernel.
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
	opt := core.DefaultOptions()
	want := core.Run(b, opt)

	for _, k := range []int{1, 3} {
		owners := make([]uint16, n)
		for g := range owners {
			owners[g] = uint16(rng.Intn(k))
		}
		plan := graph.PartitionPlan(b, owners, k, 4)

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		x, addr, err := NewRankExchange("", 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		sums := make([]uint64, k)
		for p, sub := range plan.Parts {
			sums[p] = sub.Fingerprint()
		}

		var wg sync.WaitGroup
		for p := 0; p < k; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				link, err := DialRankLink(ctx, addr, p, k, sums[p], DefaultRetryPolicy(), 5*time.Second)
				if err != nil {
					t.Errorf("worker %d dial: %v", p, err)
					return
				}
				defer link.Close()
				if err := core.RunPartition(core.NewPartState(plan.Parts[p], opt), link); err != nil {
					t.Errorf("worker %d: %v", p, err)
				}
			}(p)
		}

		links, err := x.AcceptWorkers(ctx, WorkerSpec{K: k, Sums: sums})
		if err != nil {
			t.Fatalf("k=%d accept: %v", k, err)
		}
		got, rep, err := core.Coordinate(plan, links, opt)
		if err != nil {
			t.Fatalf("k=%d coordinate: %v", k, err)
		}
		wg.Wait()
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

// TestRankExchangeRejectsBadHello: duplicate and out-of-range
// partition announcements fail the handshake.
func TestRankExchangeRejectsBadHello(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for name, parts := range map[string][]int{
		"duplicate":    {1, 1},
		"out-of-range": {0, 7},
	} {
		x, addr, err := NewRankExchange("", 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parts {
			link, err := DialRankLink(ctx, addr, p, 2, 1, RetryPolicy{}, 2*time.Second)
			if err != nil {
				t.Fatalf("%s: dial: %v", name, err)
			}
			defer link.Close()
		}
		if _, err := x.AcceptWorkers(ctx, WorkerSpec{K: 2}); err == nil {
			t.Fatalf("%s: handshake accepted", name)
		}
		x.Close()
	}
}

// TestRankExchangeBindAddress: the exchange listens where it is told
// (the hook that lets workers beyond localhost dial in), defaults to a
// fresh localhost port, and reports unusable binds instead of silently
// reverting to the default.
func TestRankExchangeBindAddress(t *testing.T) {
	x, addr, err := NewRankExchange("127.0.0.1:0", time.Second)
	if err != nil {
		t.Fatalf("explicit loopback bind: %v", err)
	}
	if host, _, err := net.SplitHostPort(addr); err != nil || host != "127.0.0.1" {
		t.Fatalf("explicit bind resolved to %q (%v)", addr, err)
	}
	// A second exchange on the SAME port must fail — proof the bind
	// address is honoured rather than replaced with a fresh port.
	if x2, a2, err := NewRankExchange(addr, time.Second); err == nil {
		x2.Close()
		t.Fatalf("duplicate bind of %s succeeded as %s", addr, a2)
	}
	x.Close()

	xd, addr, err := NewRankExchange("", time.Second)
	if err != nil {
		t.Fatalf("default bind: %v", err)
	}
	defer xd.Close()
	if host, _, err := net.SplitHostPort(addr); err != nil || host != "127.0.0.1" {
		t.Fatalf("default bind resolved to %q (%v)", addr, err)
	}
}

// TestRankExchangeRejectsHelloMismatch: a worker announcing the wrong K
// or the wrong shard fingerprint — a stale or mis-pointed frrankd — is
// refused with ErrHelloMismatch before any superstep runs, as is a
// shard-less worker when shipping is not configured.
func TestRankExchangeRejectsHelloMismatch(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	cases := map[string]struct {
		k    int
		sum  uint64
		spec WorkerSpec
	}{
		"wrong K":           {k: 4, sum: 7, spec: WorkerSpec{K: 2, Sums: []uint64{7, 7}}},
		"wrong fingerprint": {k: 2, sum: 9, spec: WorkerSpec{K: 2, Sums: []uint64{7, 7}}},
		"no shard, no ship": {k: 0, sum: 0, spec: WorkerSpec{K: 2}},
	}
	for name, tc := range cases {
		x, addr, err := NewRankExchange("", 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		link, err := DialRankLink(ctx, addr, 0, tc.k, tc.sum, RetryPolicy{}, 2*time.Second)
		if err != nil {
			t.Fatalf("%s: dial: %v", name, err)
		}
		_, err = x.AcceptWorkers(ctx, tc.spec)
		if !errors.Is(err, ErrHelloMismatch) {
			t.Fatalf("%s: got %v, want ErrHelloMismatch", name, err)
		}
		link.Close()
		x.Close()
	}

	// A stale worker binary speaks codec version 1: its Hello must die
	// in DecodeRankDelta, not be half-understood.
	x, addr, err := NewRankExchange("", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stale := EncodeRankDelta(&core.RankDelta{Kind: core.RankHello, Iter: 1, Sum: 1})
	stale[0] = 1 // the version byte a v1 binary would send
	if err := WriteFrame(conn, MsgRankDelta, stale); err != nil {
		t.Fatal(err)
	}
	if _, err := x.AcceptWorkers(ctx, WorkerSpec{K: 1, Sums: []uint64{1}}); err == nil {
		t.Fatal("stale codec version accepted")
	}
}

// TestRankShardShipping: a worker that announces with no shard gets its
// partition's FRSG blob shipped over the link, byte-identical to the
// coordinator's canonical encoding.
func TestRankShardShipping(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	b := graph.NewBidirected(40, []graph.Edge{{Src: 0, Dst: 9}, {Src: 9, Dst: 0}, {Src: 3, Dst: 22}}, 2)
	owners := make([]uint16, b.N())
	for g := range owners {
		owners[g] = uint16(g % 2)
	}
	plan := graph.PartitionPlan(b, owners, 2, 2)
	blobs := [][]byte{graph.EncodeSubGraph(plan.Parts[0]), graph.EncodeSubGraph(plan.Parts[1])}

	x, addr, err := NewRankExchange("", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()

	type joined struct {
		p    int
		blob []byte
		err  error
	}
	got := make(chan joined, 2)
	for p := 0; p < 2; p++ {
		go func(p int) {
			link, blob, err := JoinRankShipped(ctx, addr, p, RetryPolicy{}, 2*time.Second)
			if err == nil {
				defer link.Close()
			}
			got <- joined{p: p, blob: blob, err: err}
		}(p)
	}
	if _, err := x.AcceptWorkers(ctx, WorkerSpec{K: 2, Shard: func(p int) []byte { return blobs[p] }}); err != nil {
		t.Fatalf("accept: %v", err)
	}
	for i := 0; i < 2; i++ {
		j := <-got
		if j.err != nil {
			t.Fatalf("worker %d: %v", j.p, j.err)
		}
		if !bytes.Equal(j.blob, blobs[j.p]) {
			t.Fatalf("worker %d: shipped blob differs from canonical encoding", j.p)
		}
		if sub, err := graph.DecodeSubGraph(j.blob); err != nil || sub.Part != j.p {
			t.Fatalf("worker %d: shipped blob decode: %v", j.p, err)
		}
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
	x, addr, err := NewRankExchange("", 5*time.Second)
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
			link, err := DialRankLink(context.Background(), addr, p, k, 1, RetryPolicy{}, 5*time.Second)
			if err != nil {
				link = nil // refused: the listener was already closed
			}
			dialed <- link
		}(p)
	}
	accepted := make(chan error, 1)
	go func() {
		_, err := x.AcceptWorkers(ctx, WorkerSpec{K: k})
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
