// Package lfsck implements a rule-based baseline checker that mirrors
// the documented behaviour of Lustre's LFSCK (paper §II-B, Table I):
//
//   - fixed repair rules — metadata stored on the MDS (or the parent
//     directory) always overwrites its counterpart;
//   - no root-cause analysis — a dangling reference is always "the
//     target is missing" (a stub is recreated), a mismatch is always
//     "the point-back is wrong" (overwritten from the MDS), and objects
//     it cannot place are parked in lost+found;
//   - a sequential, per-inode pipeline with one synchronous RPC round
//     trip per cross-server check, reproducing the high fan-out and
//     tight coupling that make the original slow (paper §V-C).
//
// The package exists as the comparison baseline for Fig. 7 (behaviour)
// and Table VI (performance).
package lfsck

import (
	"fmt"
	"strings"
	"time"

	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/wire"
)

// LostSeq is the FID sequence LFSCK uses for lost+found artifacts.
const LostSeq uint64 = 0x200000E00

// Options configures an LFSCK run.
type Options struct {
	// UseTCP performs cross-server checks as real RPCs over localhost
	// (one synchronous round trip per object, as in the kernel
	// implementation). False calls the object services in process —
	// still one call per object, just without the socket.
	UseTCP bool
	// DryRun reports actions without mutating the images.
	DryRun bool
	// BatchSize, when > 1, switches the cross-server checks to batched
	// RPCs: each phase first sweeps its inodes collecting the FIDs it
	// must resolve, fetches them BatchSize at a time, then evaluates
	// against the prefetched answers. This models the "batch the RPCs"
	// optimisation proposed for LFSCK (Dai et al., MSST'19) — the
	// ablation showing how much of FaultyRank's Table VI advantage
	// survives a modernised baseline. 0 or 1 keeps the kernel
	// implementation's one-round-trip-per-object pipeline.
	BatchSize int
}

// ActionKind classifies an LFSCK repair action.
type ActionKind uint8

const (
	// NSFixLinkEA overwrites a child's LinkEA from the parent's dirent
	// (the parent always wins).
	NSFixLinkEA ActionKind = iota
	// NSDropDirent removes a directory entry whose target inode is gone.
	NSDropDirent
	// NSFixDirentFID rewrites the FID stored in a directory entry from
	// the child inode's LMA (the local inode is trusted, so a corrupted
	// child identity is accepted as the new truth).
	NSFixDirentFID
	// NSLostFound reattaches a namespace object nothing references
	// under /lost+found.
	NSLostFound
	// LayoutRecreateObject creates an empty stub object for a dangling
	// LOVEA reference (the MDS layout always wins).
	LayoutRecreateObject
	// LayoutFixFilterFID overwrites an object's filter-fid from the MDS
	// layout (the MDS always wins).
	LayoutFixFilterFID
	// LayoutLostFoundObject parks an OST object whose owner does not
	// acknowledge it under lost+found.
	LayoutLostFoundObject
)

func (k ActionKind) String() string {
	switch k {
	case NSFixLinkEA:
		return "ns-fix-linkea"
	case NSDropDirent:
		return "ns-drop-dirent"
	case NSFixDirentFID:
		return "ns-fix-dirent-fid"
	case NSLostFound:
		return "ns-lost+found"
	case LayoutRecreateObject:
		return "layout-recreate-object"
	case LayoutFixFilterFID:
		return "layout-fix-filterfid"
	case LayoutLostFoundObject:
		return "layout-lost+found-object"
	default:
		return fmt.Sprintf("action(%d)", uint8(k))
	}
}

// Action is one repair LFSCK performed (or would perform in dry-run).
type Action struct {
	Kind   ActionKind
	FID    lustre.FID
	Detail string
}

// Stats counts LFSCK's work.
type Stats struct {
	InodesChecked int64
	RPCs          int64
}

// Result is the outcome of an LFSCK run.
type Result struct {
	Duration            time.Duration
	TNamespace, TLayout time.Duration
	TOrphan             time.Duration
	Actions             []Action
	Stats               Stats
	lostFoundIno        ldiskfs.Ino
	lostFoundFID        lustre.FID
}

// ActionsOfKind filters the action log.
func (r *Result) ActionsOfKind(k ActionKind) []Action {
	var out []Action
	for _, a := range r.Actions {
		if a.Kind == k {
			out = append(out, a)
		}
	}
	return out
}

// HasAction reports whether an action of kind k names fid.
func (r *Result) HasAction(k ActionKind, fid lustre.FID) bool {
	for _, a := range r.Actions {
		if a.Kind == k && a.FID == fid {
			return true
		}
	}
	return false
}

// statFn answers a StatFID query against one server.
type statFn func(lustre.FID) (wire.FIDInfo, error)

// batchFn answers many StatFID queries in one round trip.
type batchFn func([]lustre.FID) ([]wire.FIDInfo, error)

// run context shared by the phases.
type runner struct {
	opt      Options
	mdt      *ldiskfs.Image
	osts     []*ldiskfs.Image
	mdtStat  statFn
	ostStat  []statFn
	mdtBatch batchFn
	ostBatch []batchFn
	res      *Result
	// mdtIndex is the MDT's FID->ino object index (Lustre's OI files).
	mdtIndex map[lustre.FID]ldiskfs.Ino
	nextOid  uint32
	closers  []func()
}

// resolveAll prefetches a deduplicated FID set through the batched RPC,
// BatchSize FIDs per round trip.
func (r *runner) resolveAll(batch batchFn, fids []lustre.FID) (map[lustre.FID]wire.FIDInfo, error) {
	seen := make(map[lustre.FID]bool, len(fids))
	uniq := fids[:0]
	for _, f := range fids {
		if !seen[f] {
			seen[f] = true
			uniq = append(uniq, f)
		}
	}
	out := make(map[lustre.FID]wire.FIDInfo, len(uniq))
	size := r.opt.BatchSize
	for lo := 0; lo < len(uniq); lo += size {
		hi := lo + size
		if hi > len(uniq) {
			hi = len(uniq)
		}
		infos, err := batch(uniq[lo:hi])
		if err != nil {
			return nil, err
		}
		for i, f := range uniq[lo:hi] {
			out[f] = infos[i]
		}
	}
	return out, nil
}

// Run executes the three LFSCK phases over the server images (MDT
// first, then OSTs by index). Multi-MDT (DNE) clusters are rejected:
// distributed-namespace checking is a known weak spot of the real LFSCK
// and out of scope for this baseline (FaultyRank's checker handles any
// number of MDTs — the FID-keyed graph merges regardless of placement).
func Run(images []*ldiskfs.Image, opt Options) (*Result, error) {
	if len(images) < 2 {
		return nil, fmt.Errorf("lfsck: need MDT + at least one OST")
	}
	for _, img := range images[1:] {
		if strings.HasPrefix(img.Label(), "mdt") {
			return nil, fmt.Errorf("lfsck: multiple MDTs not supported by the baseline (got %q)", img.Label())
		}
	}
	r := &runner{
		opt:  opt,
		mdt:  images[0],
		osts: images[1:],
		res:  &Result{},
	}
	defer func() {
		for _, c := range r.closers {
			c()
		}
	}()
	if err := r.setupServices(images); err != nil {
		return nil, err
	}

	start := time.Now()
	t := time.Now()
	if err := r.namespacePhase(); err != nil {
		return nil, err
	}
	r.res.TNamespace = time.Since(t)

	t = time.Now()
	if err := r.layoutPhase(); err != nil {
		return nil, err
	}
	r.res.TLayout = time.Since(t)

	t = time.Now()
	if err := r.orphanPhase(); err != nil {
		return nil, err
	}
	r.res.TOrphan = time.Since(t)
	r.res.Duration = time.Since(start)
	return r.res, nil
}

// setupServices builds the per-server object services (and, with
// UseTCP, the localhost endpoints + clients).
func (r *runner) setupServices(images []*ldiskfs.Image) error {
	r.mdtIndex = make(map[lustre.FID]ldiskfs.Ino)
	err := r.mdt.AllocatedInodes(func(ino ldiskfs.Ino, _ ldiskfs.FileType) error {
		if raw, ok, _ := r.mdt.GetXattr(ino, lustre.XattrLMA); ok {
			if fid, err := lustre.DecodeLMA(raw); err == nil && !fid.IsZero() {
				if _, dup := r.mdtIndex[fid]; !dup {
					r.mdtIndex[fid] = ino
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, img := range images {
		svc, err := wire.NewObjectService(img)
		if err != nil {
			return err
		}
		var stat statFn
		var batch batchFn
		if r.opt.UseTCP {
			addr, err := svc.Listen()
			if err != nil {
				return err
			}
			cli, err := wire.Dial(addr)
			if err != nil {
				svc.Close()
				return err
			}
			r.closers = append(r.closers, func() { cli.Close(); svc.Close() })
			stat = func(f lustre.FID) (wire.FIDInfo, error) {
				r.res.Stats.RPCs++
				return cli.Stat(f)
			}
			batch = func(fids []lustre.FID) ([]wire.FIDInfo, error) {
				r.res.Stats.RPCs++ // one round trip per batch
				return cli.StatBatch(fids)
			}
		} else {
			r.closers = append(r.closers, svc.Close)
			local := svc
			stat = func(f lustre.FID) (wire.FIDInfo, error) {
				r.res.Stats.RPCs++
				return local.Stat(f), nil
			}
			batch = func(fids []lustre.FID) ([]wire.FIDInfo, error) {
				r.res.Stats.RPCs++
				out := make([]wire.FIDInfo, len(fids))
				for i, f := range fids {
					out[i] = local.Stat(f)
				}
				return out, nil
			}
		}
		if img == r.mdt {
			r.mdtStat = stat
			r.mdtBatch = batch
		} else {
			r.ostStat = append(r.ostStat, stat)
			r.ostBatch = append(r.ostBatch, batch)
		}
	}
	return nil
}

func (r *runner) act(k ActionKind, fid lustre.FID, format string, args ...interface{}) {
	r.res.Actions = append(r.res.Actions, Action{
		Kind: k, FID: fid, Detail: fmt.Sprintf(format, args...),
	})
}

func (r *runner) allocFID() lustre.FID {
	r.nextOid++
	return lustre.FID{Seq: LostSeq, Oid: r.nextOid}
}
