package core

import (
	"fmt"
	"sort"
	"sync"

	"faultyrank/internal/graph"
)

// Partitioned rank execution. Run's two-phase sweep decomposes into a
// bulk-synchronous protocol between one coordinator and K partition
// workers, each holding a graph.SubGraph:
//
//	coordinator            worker p (per iteration)
//	---------------------  -------------------------------------------
//	                   <-- UpA   {sink-A values, boundary prop values}
//	fold sink mass,
//	route ghosts       --> DownA {baseA, perSinkA, ghost prop values}
//	                       phase A sweep over local Rev rows
//	                   <-- UpB   {sink-B values, boundary ID values,
//	                              local max |Δ id|}
//	fold, decide halt  --> DownB {baseB, perSinkB, ghost IDs, halt?}
//	                       phase B sweep over local Fwd rows
//
// The protocol is framed by Init (seed scatter) and Done (rank gather).
//
// The decomposition is exact, not approximate: every float operation of
// the single-process sweep happens in the same order with the same
// operands. The per-vertex gathers are the same kernel (kernel.go) over
// rows that preserve global CSR row order
// (graph.SubGraph's construction invariant); the only cross-partition
// reductions are the sink-mass sums, whose canonical fixed-block order
// (see sinkBlock in ranks.go) the coordinator reproduces term for term
// by routing raw sink values through a static global-ascending
// schedule; and max |Δ| is order-insensitive. So a K-partition run
// returns ranks bit-identical to Run's for any K and any owners map —
// the equivalence tests assert exactly that.

// RankDelta frame kinds.
const (
	// RankHello is the exchange handshake: a dialing worker announces the
	// partition index of the shard it was handed — nothing else.
	RankHello uint8 = iota + 1
	// RankInit scatters the (rescaled) initial ranks to one partition
	// together with the kernel constants its arithmetic reads; Halt set
	// means "answer with Done immediately" (zero-iteration runs).
	RankInit
	// RankUpA carries a partition's phase-A inputs: its local sink
	// values and its boundary prop values, one bundle per peer.
	RankUpA
	// RankDownA answers with the folded sink shares and the partition's
	// ghost prop values.
	RankDownA
	// RankUpB carries the phase-B inputs plus the partition-local
	// max |Δ id_rank|.
	RankUpB
	// RankDownB answers like DownA and carries the halt decision.
	RankDownB
	// RankDone returns a partition's final local ranks.
	RankDone
)

// RankDelta is the single frame type of the superstep exchange; which
// fields are populated depends on Kind. It crosses the wire via the
// versioned MsgRankDelta codec (internal/wire) and crosses goroutines
// verbatim on the LinkPair reference path.
type RankDelta struct {
	Kind uint8
	Part uint32
	Iter uint32

	// Base and PerSink are the folded sink shares (sinkShares output)
	// on Down frames; Diff is the local max |Δ id| on UpB.
	Base    float64
	PerSink float64
	Diff    float64

	// Halt on DownB ends the loop after the current phase B; on Init it
	// requests an immediate Done.
	Halt bool

	// UnpairedWeight, Smoothing and Leaky ride only on Init: the
	// Options the worker-side gather reads (Options.UnpairedWeight,
	// .Smoothing, .LeakyDistribution). The coordinator is their one
	// source, so a worker cannot run different arithmetic than the run
	// it serves.
	UnpairedWeight float64
	Smoothing      float64
	Leaky          bool

	// Sink carries the partition's sink-vertex rank values in ascending
	// local order (Up frames); Ghost the partition's ghost-column
	// values in ghost order (Down frames).
	Sink  []float64
	Ghost []float64

	// ID and Prop carry per-local rank vectors (Init seeds, Done results).
	ID   []float64
	Prop []float64

	// Bound[q] carries the values partition q needs as ghosts, in the
	// SubGraph.SendTo[q] schedule order (Up frames). Length K or nil.
	Bound [][]float64
}

// WireSize returns the byte length of the frame's canonical wire
// encoding (wire.EncodeRankDelta), so exchange accounting reports the
// same volumes on channel links and on the exchange.
func (d *RankDelta) WireSize() int {
	n := 69 // version, kind, part, iter, 5 floats, flags, 4 counts, bound count
	n += 8 * (len(d.Sink) + len(d.Ghost) + len(d.ID) + len(d.Prop))
	for _, b := range d.Bound {
		n += 4 + 8*len(b)
	}
	return n
}

// Link is one coordinator<->worker duplex channel: wire.RankConn on the
// rank exchange, buffered Go channels (LocalLink) in the reference
// driver.
type Link interface {
	Send(*RankDelta) error
	Recv() (*RankDelta, error)
}

// PartError attributes a failed exchange to the partition whose link
// broke, so a caller can report which one failed.
type PartError struct {
	Part int
	Err  error
}

func (e *PartError) Error() string { return fmt.Sprintf("rank partition %d: %v", e.Part, e.Err) }
func (e *PartError) Unwrap() error { return e.Err }

func gatherAt(dst []float64, src []float64, idx []uint32) []float64 {
	dst = dst[:0]
	for _, i := range idx {
		dst = append(dst, src[i])
	}
	return dst
}

// RunPartition executes one worker's side of the superstep protocol on
// its shard until the coordinator halts it or the link breaks. workers
// bounds this partition's sweep parallelism (Options.PartitionWorkers);
// every other knob the gather reads arrives in the Init frame.
func RunPartition(sub *graph.SubGraph, workers int, link Link) error {
	nLocal := sub.NLocal()
	rows := allRows(nLocal)

	init, err := link.Recv()
	if err != nil {
		return err
	}
	if init.Kind != RankInit {
		return fmt.Errorf("rank worker %d: expected Init, got kind %d", sub.Part, init.Kind)
	}
	if len(init.ID) != nLocal || len(init.Prop) != nLocal {
		return fmt.Errorf("rank worker %d: Init seed length %d/%d, want %d", sub.Part, len(init.ID), len(init.Prop), nLocal)
	}
	k := shardKernel(sub, Options{
		UnpairedWeight:    init.UnpairedWeight,
		Smoothing:         init.Smoothing,
		LeakyDistribution: init.Leaky,
		Workers:           workers,
	})
	defer k.stop()
	// The Init frame is this worker's alone; its seed vectors become the
	// rank vectors.
	k.seed(init.ID, init.Prop)

	done := func() error {
		return link.Send(&RankDelta{Kind: RankDone, Part: uint32(sub.Part), ID: k.id, Prop: k.prop})
	}
	if init.Halt {
		return done()
	}

	// The local phase A/B sinks, ascending; their values feed the
	// coordinator's canonical sink-mass fold.
	var sinkALoc, sinkBLoc []uint32
	for l := 0; l < nLocal; l++ {
		if sub.FwdOff[l] == sub.FwdOff[l+1] {
			sinkALoc = append(sinkALoc, uint32(l))
		}
		if k.invW[l] == 0 {
			sinkBLoc = append(sinkBLoc, uint32(l))
		}
	}

	// Ghost values travel unscaled, as the peers' rank entries; gathers
	// read only the scaled vectors, so a ghost column is scaled on receipt
	// by its own divisor — exactly what its owner wrote into its own
	// scaled entry — and its unscaled value is not kept.
	ghostOut, ghostW := sub.OutDeg[nLocal:], k.invW[nLocal:]
	sPropGhost, sIDGhost := k.sProp[nLocal:], k.sID[nLocal:]

	// Reused frame buffers: values are copied into the frames (gathers
	// are non-contiguous), so the compute arrays stay private.
	upA := &RankDelta{Kind: RankUpA, Part: uint32(sub.Part)}
	upB := &RankDelta{Kind: RankUpB, Part: uint32(sub.Part)}
	for _, up := range []*RankDelta{upA, upB} {
		up.Bound = make([][]float64, len(sub.SendTo))
	}

	for iter := uint32(0); ; iter++ {
		// ---- superstep A: ship sinks+boundary, recv shares+ghosts ---
		upA.Iter = iter
		upA.Sink = gatherAt(upA.Sink, k.prop, sinkALoc)
		for q, sched := range sub.SendTo {
			upA.Bound[q] = gatherAt(upA.Bound[q], k.prop, sched)
		}
		if err := link.Send(upA); err != nil {
			return err
		}
		downA, err := link.Recv()
		if err != nil {
			return err
		}
		if downA.Kind != RankDownA || downA.Iter != iter {
			return fmt.Errorf("rank worker %d: expected DownA iter %d, got kind %d iter %d", sub.Part, iter, downA.Kind, downA.Iter)
		}
		if len(downA.Ghost) != len(sub.Ghosts) {
			return fmt.Errorf("rank worker %d: DownA ghost count %d, want %d", sub.Part, len(downA.Ghost), len(sub.Ghosts))
		}
		for i, g := range downA.Ghost {
			sPropGhost[i] = g * inverse(float64(ghostOut[i]))
		}

		// ---- superstep B ---------------------------------------------
		upB.Iter = iter
		upB.Diff = k.phaseA(rows, downA.Base, downA.PerSink)
		upB.Sink = gatherAt(upB.Sink, k.id, sinkBLoc)
		for q, sched := range sub.SendTo {
			upB.Bound[q] = gatherAt(upB.Bound[q], k.id, sched)
		}
		if err := link.Send(upB); err != nil {
			return err
		}
		downB, err := link.Recv()
		if err != nil {
			return err
		}
		if downB.Kind != RankDownB || downB.Iter != iter {
			return fmt.Errorf("rank worker %d: expected DownB iter %d, got kind %d iter %d", sub.Part, iter, downB.Kind, downB.Iter)
		}
		if len(downB.Ghost) != len(sub.Ghosts) {
			return fmt.Errorf("rank worker %d: DownB ghost count %d, want %d", sub.Part, len(downB.Ghost), len(sub.Ghosts))
		}
		for i, g := range downB.Ghost {
			sIDGhost[i] = g * ghostW[i]
		}

		k.phaseB(rows, downB.Base, downB.PerSink)
		if downB.Halt {
			return done()
		}
	}
}

// SuperstepStats is one iteration's exchange record.
type SuperstepStats struct {
	Iter int `json:"iter"`
	// MaxDelta is the folded convergence measure (same scale as
	// Result.Diffs); SinkMassID/SinkMassProp the redistributed masses.
	MaxDelta     float64 `json:"max_delta"`
	SinkMassID   float64 `json:"sink_mass_id"`
	SinkMassProp float64 `json:"sink_mass_prop"`
	// UpBytes/DownBytes count the canonical encoded sizes of the four
	// frames of this iteration (UpA+UpB and DownA+DownB, summed over
	// partitions).
	UpBytes   int64 `json:"up_bytes"`
	DownBytes int64 `json:"down_bytes"`
}

// PartSummary describes one partition's share of the graph.
type PartSummary struct {
	Part     int   `json:"part"`
	Locals   int   `json:"locals"`
	Ghosts   int   `json:"ghosts"`
	CutEdges int64 `json:"cut_edges"`
}

// ExchangeReport is the coordinator's account of a partitioned run.
type ExchangeReport struct {
	K          int              `json:"k"`
	Supersteps []SuperstepStats `json:"supersteps"`
	Partitions []PartSummary    `json:"partitions"`
	// UpBytes/DownBytes are run totals, Init and Done frames included.
	UpBytes   int64 `json:"up_bytes"`
	DownBytes int64 `json:"down_bytes"`
}

// sinkRef addresses one sink vertex's value inside the Up frames: the
// global vertex gid is the cursors[part]'th entry of partition part's
// Sink array. Refs are sorted by gid, so walking them in order visits
// sinks in global-ascending order — the canonical sum order.
type sinkRef struct {
	gid  uint32
	part uint16
}

func buildSinkRefs(plan *graph.Plan, pick func(sub *graph.SubGraph, l int) bool) []sinkRef {
	var refs []sinkRef
	for p, sub := range plan.Parts {
		for l := 0; l < sub.NLocal(); l++ {
			if pick(sub, l) {
				refs = append(refs, sinkRef{gid: sub.Local[l], part: uint16(p)})
			}
		}
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].gid < refs[j].gid })
	return refs
}

// foldSinks reproduces the kernel's canonical blocked sum (sinkBlock)
// from the raw sink values the partitions shipped: terms land in their
// fixed 4096-wide block in ascending-gid order, and the block partials
// fold in ascending block order — the exact term sequence of the
// single-process sweep's partials and foldBlocks.
func foldSinks(refs []sinkRef, ups []*RankDelta, partial []float64, cursors []int) float64 {
	for i := range partial {
		partial[i] = 0
	}
	for i := range cursors {
		cursors[i] = 0
	}
	for _, r := range refs {
		partial[int(r.gid)/sinkBlock] += ups[r.part].Sink[cursors[r.part]]
		cursors[r.part]++
	}
	return foldBlocks(partial)
}

func sendAll(links []Link, frames []*RankDelta) error {
	errs := make([]error, len(links))
	var wg sync.WaitGroup
	for p := range links {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = links[p].Send(frames[p])
		}(p)
	}
	wg.Wait()
	return firstPartError(errs)
}

func recvAll(links []Link, kind uint8, iter uint32) ([]*RankDelta, error) {
	out := make([]*RankDelta, len(links))
	errs := make([]error, len(links))
	var wg sync.WaitGroup
	for p := range links {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			d, err := links[p].Recv()
			if err == nil {
				if d.Kind != kind || d.Iter != iter {
					err = fmt.Errorf("expected frame kind %d iter %d, got kind %d iter %d", kind, iter, d.Kind, d.Iter)
				} else if d.Part != uint32(p) {
					err = fmt.Errorf("frame claims partition %d on link %d", d.Part, p)
				}
			}
			out[p], errs[p] = d, err
		}(p)
	}
	wg.Wait()
	return out, firstPartError(errs)
}

func firstPartError(errs []error) error {
	for p, err := range errs {
		if err != nil {
			return &PartError{Part: p, Err: err}
		}
	}
	return nil
}

// Coordinate runs the coordinator side of a partitioned rank execution
// over one established link per partition. It returns the same Result a
// single-process Run over the unpartitioned graph would — bit for bit —
// plus the exchange accounting.
func Coordinate(plan *graph.Plan, links []Link, opt Options) (*Result, *ExchangeReport, error) {
	if len(links) != plan.K {
		return nil, nil, fmt.Errorf("core: %d links for %d partitions", len(links), plan.K)
	}
	n := plan.N
	// res holds the seeds until the final gather overwrites them.
	res := &Result{}
	res.IDRank, res.PropRank = seedRanks(n, opt, nil, nil)
	rep := &ExchangeReport{K: plan.K}
	for _, sub := range plan.Parts {
		rep.Partitions = append(rep.Partitions, PartSummary{
			Part:     sub.Part,
			Locals:   sub.NLocal(),
			Ghosts:   len(sub.Ghosts),
			CutEdges: sub.CutEdges,
		})
	}

	scatter := func(global []float64, sub *graph.SubGraph) []float64 {
		out := make([]float64, sub.NLocal())
		for l, g := range sub.Local {
			out[l] = global[g]
		}
		return out
	}

	haltNow := n == 0 || opt.MaxIterations <= 0
	inits := make([]*RankDelta, plan.K)
	for p, sub := range plan.Parts {
		inits[p] = &RankDelta{
			Kind: RankInit,
			Part: uint32(p),
			Halt: haltNow,
			ID:   scatter(res.IDRank, sub),
			Prop: scatter(res.PropRank, sub),

			UnpairedWeight: opt.UnpairedWeight,
			Smoothing:      opt.Smoothing,
			Leaky:          opt.LeakyDistribution,
		}
		rep.DownBytes += int64(inits[p].WireSize())
	}
	if err := sendAll(links, inits); err != nil {
		return nil, rep, err
	}

	// The phase-A sinks (no forward out-edges) and phase-B sinks (no
	// reversed-distribution weight) are the columns whose inverse divisor
	// the workers' kernels set to zero; the fold is scheduled from the
	// same integers without building divisors here.
	refsA := buildSinkRefs(plan, func(sub *graph.SubGraph, l int) bool {
		return sub.OutDeg[l] <= 0
	})
	refsB := buildSinkRefs(plan, func(sub *graph.SubGraph, l int) bool {
		return !(opt.inWeight(sub.PairedIn[l], sub.UnpairedIn[l]) > 0)
	})
	nb := (n + sinkBlock - 1) / sinkBlock
	partial := make([]float64, nb)
	cursors := make([]int, plan.K)

	downs := make([]*RankDelta, plan.K)
	for p, sub := range plan.Parts {
		downs[p] = &RankDelta{Part: uint32(p), Ghost: make([]float64, len(sub.Ghosts))}
	}
	// routeGhosts fills each partition's ghost vector from the Bound
	// bundles: partition q's ghosts ascend by global GID and so does
	// every SendTo[·][q] schedule, so a per-owner cursor walk lines the
	// two up exactly.
	routeGhosts := func(ups []*RankDelta) {
		for q, sub := range plan.Parts {
			for i := range cursors {
				cursors[i] = 0
			}
			out := downs[q].Ghost
			for i, g := range sub.Ghosts {
				o := plan.Owners[g]
				out[i] = ups[o].Bound[q][cursors[o]]
				cursors[o]++
			}
		}
	}

	if !haltNow {
		for iter := uint32(0); ; iter++ {
			var stepUp, stepDown int64

			// ---- superstep A ----------------------------------------
			ups, err := recvAll(links, RankUpA, iter)
			if err != nil {
				return nil, rep, err
			}
			if err := checkUps(plan, ups, refsA); err != nil {
				return nil, rep, err
			}
			for _, u := range ups {
				stepUp += int64(u.WireSize())
			}
			sinkA := foldSinks(refsA, ups, partial, cursors)
			baseA, perSinkA := sinkShares(sinkA, n, opt.SinkPolicy)
			routeGhosts(ups)
			for _, d := range downs {
				d.Kind, d.Iter, d.Base, d.PerSink, d.Halt = RankDownA, iter, baseA, perSinkA, false
				stepDown += int64(d.WireSize())
			}
			if err := sendAll(links, downs); err != nil {
				return nil, rep, err
			}

			// ---- superstep B ----------------------------------------
			ups, err = recvAll(links, RankUpB, iter)
			if err != nil {
				return nil, rep, err
			}
			if err := checkUps(plan, ups, refsB); err != nil {
				return nil, rep, err
			}
			for _, u := range ups {
				stepUp += int64(u.WireSize())
			}
			sinkB := foldSinks(refsB, ups, partial, cursors)
			baseB, perSinkB := sinkShares(sinkB, n, opt.SinkPolicy)

			var diff float64
			for _, u := range ups {
				if u.Diff > diff {
					diff = u.Diff
				}
			}
			converged := res.recordIteration(opt, diff, sinkA, sinkB)
			last := res.Iterations >= opt.MaxIterations

			routeGhosts(ups)
			for _, d := range downs {
				d.Kind, d.Iter, d.Base, d.PerSink, d.Halt = RankDownB, iter, baseB, perSinkB, converged || last
				stepDown += int64(d.WireSize())
			}
			if err := sendAll(links, downs); err != nil {
				return nil, rep, err
			}

			rep.Supersteps = append(rep.Supersteps, SuperstepStats{
				Iter:         int(iter),
				MaxDelta:     res.Diffs[iter],
				SinkMassID:   sinkA,
				SinkMassProp: sinkB,
				UpBytes:      stepUp,
				DownBytes:    stepDown,
			})
			rep.UpBytes += stepUp
			rep.DownBytes += stepDown
			if converged {
				res.Converged = true
			}
			if converged || last {
				break
			}
		}
	}

	// ---- gather final ranks -----------------------------------------
	dones, err := recvAll(links, RankDone, 0)
	if err != nil {
		return nil, rep, err
	}
	for p, d := range dones {
		sub := plan.Parts[p]
		if len(d.ID) != sub.NLocal() || len(d.Prop) != sub.NLocal() {
			return nil, rep, &PartError{Part: p, Err: fmt.Errorf("Done carries %d/%d ranks, want %d", len(d.ID), len(d.Prop), sub.NLocal())}
		}
		rep.UpBytes += int64(d.WireSize())
		for l, g := range sub.Local {
			res.IDRank[g] = d.ID[l]
			res.PropRank[g] = d.Prop[l]
		}
	}
	if n == 0 {
		res.Converged = true
	}
	return res, rep, nil
}

// checkUps validates the shape of one round of Up frames before the
// fold and routing index into them.
func checkUps(plan *graph.Plan, ups []*RankDelta, refs []sinkRef) error {
	want := make([]int, plan.K)
	for _, r := range refs {
		want[r.part]++
	}
	for p, u := range ups {
		if len(u.Sink) != want[p] {
			return &PartError{Part: p, Err: fmt.Errorf("up frame carries %d sink values, want %d", len(u.Sink), want[p])}
		}
		if len(u.Bound) != plan.K {
			return &PartError{Part: p, Err: fmt.Errorf("up frame carries %d bound bundles, want %d", len(u.Bound), plan.K)}
		}
		for q, b := range u.Bound {
			if len(b) != len(plan.Parts[p].SendTo[q]) {
				return &PartError{Part: p, Err: fmt.Errorf("bound bundle for %d carries %d values, want %d", q, len(b), len(plan.Parts[p].SendTo[q]))}
			}
		}
	}
	return nil
}

// errLinkClosed reports an in-process link torn down by the peer.
var errLinkClosed = fmt.Errorf("core: rank link closed")

// LocalLink is one end of an in-process superstep link — the channel
// counterpart of wire.RankConn, used by the RunPartitioned reference
// driver. Closing either end releases both: a blocked Send or Recv
// returns an error, so a crashed worker surfaces at the coordinator as a
// named PartError instead of hanging the superstep barrier.
type LocalLink struct {
	in   chan *RankDelta
	out  chan *RankDelta
	done chan struct{}
	stop *sync.Once
}

// LinkPair returns the coordinator and worker ends of a fresh in-process
// link. The channels are buffered one frame deep — enough for the
// strictly alternating protocol — and share a teardown signal.
func LinkPair() (coord, worker *LocalLink) {
	toWorker := make(chan *RankDelta, 1)
	toCoord := make(chan *RankDelta, 1)
	done := make(chan struct{})
	stop := &sync.Once{}
	coord = &LocalLink{in: toCoord, out: toWorker, done: done, stop: stop}
	worker = &LocalLink{in: toWorker, out: toCoord, done: done, stop: stop}
	return coord, worker
}

// Send hands a frame to the peer, or fails once the pair is torn down.
func (l *LocalLink) Send(d *RankDelta) error {
	select {
	case l.out <- d:
		return nil
	case <-l.done:
		return errLinkClosed
	}
}

// Recv drains a frame already in flight before honouring teardown, so a
// peer that sends its final frame and immediately closes cannot race
// its own goodbye.
func (l *LocalLink) Recv() (*RankDelta, error) {
	select {
	case d := <-l.in:
		return d, nil
	default:
	}
	select {
	case d := <-l.in:
		return d, nil
	case <-l.done:
		return nil, errLinkClosed
	}
}

// Close tears the pair down; idempotent, releases both ends.
func (l *LocalLink) Close() error {
	l.stop.Do(func() { close(l.done) })
	return nil
}

// PartitionWorkers is the sweep parallelism of each of k partition
// workers: the run's worker budget divided across them, minimum 1.
func (o Options) PartitionWorkers(k int) int {
	return max(o.workers()/k, 1)
}

// RunPartitioned executes a partitioned rank run entirely in-process:
// one RunPartition goroutine per partition on a channel link pair, the
// calling goroutine as coordinator. No frame is encoded, so it is the
// reference the exchange-borne runs are compared against bit for bit.
func RunPartitioned(plan *graph.Plan, opt Options) (*Result, *ExchangeReport, error) {
	workers := opt.PartitionWorkers(plan.K)
	links := make([]Link, plan.K)
	ends := make([]*LocalLink, plan.K)
	var wg sync.WaitGroup
	for p := 0; p < plan.K; p++ {
		coord, end := LinkPair()
		links[p], ends[p] = coord, end
		wg.Add(1)
		go func(p int, end *LocalLink) {
			defer wg.Done()
			// A worker error breaks the protocol; closing the pair turns
			// the coordinator's next wait into a named PartError.
			if err := RunPartition(plan.Parts[p], workers, end); err != nil {
				end.Close()
			}
		}(p, end)
	}
	res, rep, err := Coordinate(plan, links, opt)
	for _, end := range ends {
		end.Close()
	}
	wg.Wait()
	return res, rep, err
}
