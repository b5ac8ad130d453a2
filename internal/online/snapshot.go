package online

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"faultyrank/internal/agg"
	"faultyrank/internal/bincodec"
	"faultyrank/internal/checker"
	"faultyrank/internal/ldiskfs"
)

// This file is the tracker's durable form: a versioned binary snapshot
// of everything a killed-and-restarted watcher needs to resume from the
// change feed with identical findings — the delta builder (interner,
// cached contributions, accumulated dirty set, via its own codec), the
// last converged warm-start ranks, and the lifetime counters. It
// follows the same codec discipline as the delta and telemetry blobs:
// versioned ("FRSN"), canonical (a blob either fails to decode or
// re-encodes byte-identically — the fuzz target's invariant), and
// bounded (untrusted counts are checked against the remaining payload
// before any allocation).
//
// Deliberately NOT persisted: the per-server telemetry registries and
// spans. Those are process-lifetime observability — a restarted watcher
// reports the work *it* did, not the work a dead process once did.

// TrackerCodecVersion identifies the binary layout of tracker
// snapshots. Bump on any incompatible change.
// v2 added the inodesDropped and rescans lifetime counters.
const TrackerCodecVersion = 2

const trackerMagic = "FRSN"

// ErrTrackerSnapshot is wrapped by every decode failure caused by a
// malformed blob (truncation, corruption, non-canonical form).
var ErrTrackerSnapshot = errors.New("malformed tracker snapshot")

// ErrTrackerSnapshotVersion is wrapped when the magic or version does
// not match this build; Open falls back to a cold NewTracker.
var ErrTrackerSnapshotVersion = errors.New("unsupported tracker snapshot version")

// ErrTrackerSnapshotLabels is wrapped when a structurally valid
// snapshot does not describe the images it is being restored against —
// restoring mdt0's state onto ost1 must fail loudly, not corrupt both.
var ErrTrackerSnapshotLabels = errors.New("tracker snapshot does not match images")

var trackerFormat = bincodec.Format{Name: "online", Malformed: ErrTrackerSnapshot, Version: ErrTrackerSnapshotVersion}

// trackerSnapshot is the decoded durable state, independent of any
// image set — what the codec (and its fuzz target) round-trips.
type trackerSnapshot struct {
	delta            *agg.DeltaBuilder
	haveWarm         bool
	lastIters        int
	checks, updates  int64
	inodesRescan     int64
	inodesDropped    int64
	warmFallbacks    int64
	rescans          int64
	prevID, prevProp []float64
}

func encodeTrackerSnapshot(s *trackerSnapshot) []byte {
	le := binary.LittleEndian
	buf := append([]byte(trackerMagic), TrackerCodecVersion)

	deltaBlob := s.delta.EncodeBinary()
	buf = le.AppendUint32(buf, uint32(len(deltaBlob)))
	buf = append(buf, deltaBlob...)

	if s.haveWarm {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = le.AppendUint64(buf, uint64(s.lastIters))
	buf = le.AppendUint64(buf, uint64(s.checks))
	buf = le.AppendUint64(buf, uint64(s.updates))
	buf = le.AppendUint64(buf, uint64(s.inodesRescan))
	buf = le.AppendUint64(buf, uint64(s.inodesDropped))
	buf = le.AppendUint64(buf, uint64(s.warmFallbacks))
	buf = le.AppendUint64(buf, uint64(s.rescans))

	if s.haveWarm {
		buf = le.AppendUint32(buf, uint32(len(s.prevID)))
		for _, v := range s.prevID {
			buf = le.AppendUint64(buf, math.Float64bits(v))
		}
		for _, v := range s.prevProp {
			buf = le.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

func decodeTrackerSnapshot(blob []byte) (*trackerSnapshot, error) {
	d := bincodec.NewReader(&trackerFormat, blob)
	d.Header(trackerMagic, TrackerCodecVersion)

	deltaBlob := d.Bytes(int(d.U32()))
	if err := d.Err(); err != nil {
		return nil, err
	}
	delta, err := agg.DecodeDeltaBuilder(deltaBlob)
	if err != nil {
		// The nested delta codec has its own named errors; wrap them
		// under ours so callers can treat the whole blob uniformly. A
		// version mismatch inside an FRSN envelope is corruption, not a
		// mixed-version deployment.
		d.Failf("delta section: %v", err)
	}

	s := &trackerSnapshot{delta: delta}
	switch d.U8() {
	case 0:
	case 1:
		s.haveWarm = true
	default:
		d.Failf("warm flag is neither 0 nor 1")
	}
	s.lastIters = int(d.U64())
	s.checks = int64(d.U64())
	s.updates = int64(d.U64())
	s.inodesRescan = int64(d.U64())
	s.inodesDropped = int64(d.U64())
	s.warmFallbacks = int64(d.U64())
	s.rescans = int64(d.U64())

	if s.haveWarm {
		// Two vectors of n floats follow.
		n := d.Count(uint64(d.U32()), 16)
		s.prevID = make([]float64, n)
		for i := range s.prevID {
			s.prevID[i] = d.F64()
		}
		s.prevProp = make([]float64, n)
		for i := range s.prevProp {
			s.prevProp[i] = d.F64()
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// EncodeSnapshot serialises the tracker's durable state. The blob is
// deterministic for a given state: saving twice without an intervening
// update produces identical bytes.
func (t *Tracker) EncodeSnapshot() []byte {
	return encodeTrackerSnapshot(&trackerSnapshot{
		delta:         t.delta,
		haveWarm:      t.haveWarm,
		lastIters:     t.lastIters,
		checks:        t.checks,
		updates:       t.updates,
		inodesRescan:  t.inodesRescan,
		inodesDropped: t.inodesDropped,
		warmFallbacks: t.warmFallbacks,
		rescans:       t.rescans,
		prevID:        t.prevID,
		prevProp:      t.prevProp,
	})
}

// RestoreTracker rebuilds a tracker from an EncodeSnapshot blob without
// any rescan: the maintained snapshot, warm-start ranks and dirty-seed
// accumulator come from the blob, and the next Update resumes from
// whatever the images' change feeds accumulated while the previous
// process was down. The images must be the same cluster the snapshot
// was taken from, in the same canonical order (checked by label). opt
// is resolved as NewTracker resolves it.
func RestoreTracker(blob []byte, images []*ldiskfs.Image, opt checker.Options) (*Tracker, error) {
	s, err := decodeTrackerSnapshot(blob)
	if err != nil {
		return nil, err
	}
	labels := s.delta.Labels()
	if len(labels) != len(images) {
		return nil, fmt.Errorf("online: snapshot has %d servers, images %d: %w",
			len(labels), len(images), ErrTrackerSnapshotLabels)
	}
	for i, img := range images {
		if img.Label() != labels[i] {
			return nil, fmt.Errorf("online: snapshot server %d is %q, image is %q: %w",
				i, labels[i], img.Label(), ErrTrackerSnapshotLabels)
		}
	}
	t := blankTracker(images, opt)
	t.delta = s.delta
	t.prevID, t.prevProp, t.haveWarm = s.prevID, s.prevProp, s.haveWarm
	t.lastIters = s.lastIters
	t.updates, t.inodesRescan, t.inodesDropped = s.updates, s.inodesRescan, s.inodesDropped
	t.checks, t.warmFallbacks, t.rescans = s.checks, s.warmFallbacks, s.rescans
	return t, nil
}

// stateFileName is the snapshot's name inside a -state directory.
const stateFileName = "tracker.snap"

// SaveState writes the snapshot into dir atomically (temp file +
// rename), so a crash mid-save leaves the previous snapshot intact.
func (t *Tracker) SaveState(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("online: save state: %w", err)
	}
	if err := bincodec.WriteFileAtomic(filepath.Join(dir, stateFileName), t.EncodeSnapshot()); err != nil {
		return fmt.Errorf("online: save state: %w", err)
	}
	t.opt.Journal.Record("online", "snapshot-save", "dir", dir)
	return nil
}

// LoadState restores a tracker from dir. A missing snapshot reports
// fs.ErrNotExist (via os.ReadFile) — Open's cue to start cold with
// NewTracker instead.
func LoadState(dir string, images []*ldiskfs.Image, opt checker.Options) (*Tracker, error) {
	blob, err := os.ReadFile(filepath.Join(dir, stateFileName))
	if err != nil {
		return nil, err
	}
	return RestoreTracker(blob, images, opt)
}

// Open resumes a tracker from the snapshot SaveState left in stateDir,
// or starts a fresh one (NewTracker's full scan) when there is nothing
// to resume: no state directory, no snapshot in it, or a snapshot from
// an incompatible build — expected across upgrades. A malformed
// snapshot, or one from another cluster, is an error. logf receives one
// line saying how a state directory was used.
func Open(stateDir string, images []*ldiskfs.Image, opt checker.Options, logf func(format string, args ...any)) (*Tracker, error) {
	if stateDir == "" {
		return NewTracker(images, opt)
	}
	tr, err := LoadState(stateDir, images, opt)
	switch {
	case err == nil:
		logf("resumed tracker state from %s", stateDir)
		return tr, nil
	case errors.Is(err, fs.ErrNotExist):
		logf("no snapshot in %s, starting fresh", stateDir)
	case errors.Is(err, ErrTrackerSnapshotVersion):
		logf("snapshot in %s is from an incompatible build, starting fresh", stateDir)
	default:
		return nil, err
	}
	return NewTracker(images, opt)
}
