package online

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"faultyrank/internal/bincodec/bincodectest"
	"faultyrank/internal/checker"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

// TestTrackerSnapshotRoundTrip: encode → restore reproduces the
// tracker's durable state exactly — byte-identical re-encoding,
// identical maintained partials, identical counters and warm state.
func TestTrackerSnapshotRoundTrip(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	if _, err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("/w/rt", 64<<10); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Check(); err != nil {
		t.Fatal(err)
	}

	blob := tr.EncodeSnapshot()
	if !bytes.Equal(blob, tr.EncodeSnapshot()) {
		t.Fatal("encoding is not deterministic")
	}
	got, err := RestoreTracker(blob, checker.ClusterImages(c), checker.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if re := got.EncodeSnapshot(); !bytes.Equal(re, blob) {
		t.Fatalf("re-encode differs (%d vs %d bytes)", len(re), len(blob))
	}
	if !reflect.DeepEqual(got.Partials(), tr.Partials()) {
		t.Fatal("maintained partials diverge after restore")
	}
	if got.haveWarm != tr.haveWarm || got.lastIters != tr.lastIters ||
		!reflect.DeepEqual(got.prevID, tr.prevID) ||
		!reflect.DeepEqual(got.prevProp, tr.prevProp) {
		t.Fatal("warm-start state diverges after restore")
	}
	if got.Stats() != tr.Stats() {
		t.Fatalf("lifetime counters diverge: %+v vs %+v", got.Stats(), tr.Stats())
	}
}

// TestTrackerSnapshotRejectsDamage: truncations, header forgeries, a
// corrupted delta section and a forged warm flag all fail with named
// errors; restoring against the wrong images fails the label check.
func TestTrackerSnapshotRejectsDamage(t *testing.T) {
	c := newCluster(t)
	// The damage below includes the warm vectors, which only a round that
	// ranked leaves behind.
	tr, err := NewTracker(checker.ClusterImages(c), rankingOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Check()
	if err != nil {
		t.Fatal(err)
	}
	mustHaveRanked(t, res)
	blob := tr.EncodeSnapshot()
	images := checker.ClusterImages(c)
	opt := checker.DefaultOptions()

	for n := 0; n < len(blob); n++ {
		if _, err := RestoreTracker(blob[:n], images, opt); err == nil {
			t.Fatalf("truncation to %d bytes restored successfully", n)
		} else if !errors.Is(err, ErrTrackerSnapshot) && !errors.Is(err, ErrTrackerSnapshotVersion) {
			t.Fatalf("truncation to %d bytes: unnamed error %v", n, err)
		}
	}

	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := RestoreTracker(bad, images, opt); !errors.Is(err, ErrTrackerSnapshotVersion) {
		t.Fatalf("bad magic: %v", err)
	}
	bad = append([]byte(nil), blob...)
	bad[4] = TrackerCodecVersion + 1
	if _, err := RestoreTracker(bad, images, opt); !errors.Is(err, ErrTrackerSnapshotVersion) {
		t.Fatalf("future version: %v", err)
	}
	if _, err := RestoreTracker(append(append([]byte(nil), blob...), 0), images, opt); !errors.Is(err, ErrTrackerSnapshot) {
		t.Fatalf("trailing byte: %v", err)
	}
	// A lying count: the warm-vector length, which sits just before the
	// two vectors that end the blob.
	if !tr.haveWarm || len(tr.prevID) == 0 {
		t.Fatal("tracker has no warm vectors after a check")
	}
	bad = append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(bad[len(bad)-16*len(tr.prevID)-4:], 1<<31)
	if _, err := RestoreTracker(bad, images, opt); !errors.Is(err, ErrTrackerSnapshot) {
		t.Fatalf("lying warm-vector length: %v", err)
	}

	// Stomp the nested delta section's magic: the envelope is fine, the
	// payload is not.
	bad = append([]byte(nil), blob...)
	bad[9] = 'X'
	if _, err := RestoreTracker(bad, images, opt); !errors.Is(err, ErrTrackerSnapshot) {
		t.Fatalf("corrupt delta section: %v", err)
	}

	// Restoring against a different image set must fail by label: wrong
	// count, and right images in the wrong order.
	if _, err := RestoreTracker(blob, images[:1], opt); !errors.Is(err, ErrTrackerSnapshotLabels) {
		t.Fatalf("server count mismatch: %v", err)
	}
	swapped := append([]*ldiskfs.Image(nil), images...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	if _, err := RestoreTracker(blob, swapped, opt); !errors.Is(err, ErrTrackerSnapshotLabels) {
		t.Fatalf("server order mismatch: %v", err)
	}
}

// TestSaveLoadState: the -state directory round trip, including the
// missing-file signal a fresh deployment starts from.
func TestSaveLoadState(t *testing.T) {
	c := newCluster(t)
	tr := newTracker(t, c)
	if _, err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	images := checker.ClusterImages(c)
	opt := checker.DefaultOptions()

	if _, err := LoadState(dir, images, opt); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("empty state dir: want fs.ErrNotExist, got %v", err)
	}
	if err := tr.SaveState(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadState(dir, images, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.EncodeSnapshot(), tr.EncodeSnapshot()) {
		t.Fatal("loaded state diverges from saved state")
	}
}

// scriptRound applies one deterministic mutation batch to a cluster —
// the workload both the interrupted and the uninterrupted run replay.
func scriptRound(t *testing.T, c *lustre.Cluster, round int) {
	t.Helper()
	switch round {
	case 0:
		for i := 0; i < 3; i++ {
			if _, err := c.Create(fmt.Sprintf("/w/s0-%d", i), 2*64<<10); err != nil {
				t.Fatal(err)
			}
		}
	case 1:
		if err := c.Unlink("/w/s0-1"); err != nil {
			t.Fatal(err)
		}
		// Scenarios that fabricate no fresh FIDs (the injector's bogus-FID
		// counter is process-global, which would make two scripted runs
		// diverge spuriously).
		if _, err := inject.Inject(c, inject.UnrefStaleObject, "/w/f03"); err != nil {
			t.Fatal(err)
		}
	case 2:
		// The mutations that land while the interrupted tracker is down:
		// they reach it only through the persisted feed on restart.
		if _, err := c.Create("/w/s2-while-down", 2*64<<10); err != nil {
			t.Fatal(err)
		}
		if _, err := inject.Inject(c, inject.UnrefLOVEADropped, "/w/s0-0"); err != nil {
			t.Fatal(err)
		}
	case 3:
		if err := c.Unlink("/w/f07"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKillRestartMidWatchResumesIdentically is the durability
// acceptance property: a watch killed after round 2 (its state saved, the
// tracker dropped, mutations landing while it is down) and restored
// from the snapshot produces, round for round, findings identical to an
// uninterrupted run over an identically-scripted cluster — and ends in
// byte-identical durable state.
func TestKillRestartMidWatchResumesIdentically(t *testing.T) {
	const rounds = 4
	run := func(interruptAfter int) ([][]checker.Finding, []byte) {
		c := newCluster(t)
		tr := newTracker(t, c)
		dir := t.TempDir()
		var findings [][]checker.Finding
		for r := 0; r < rounds; r++ {
			scriptRound(t, c, r)
			res, err := tr.Check()
			if err != nil {
				t.Fatal(err)
			}
			findings = append(findings, res.Findings)
			if err := tr.SaveState(dir); err != nil {
				t.Fatal(err)
			}
			if interruptAfter == r+1 {
				// The "kill": drop the live tracker and resume from disk.
				// The cluster's change feeds live on, exactly as a real
				// filesystem's changelog would across a checker restart.
				tr = nil
				restored, err := LoadState(dir, checker.ClusterImages(c), checker.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				tr = restored
			}
		}
		return findings, tr.EncodeSnapshot()
	}

	baseline, baseState := run(0)
	resumed, resumedState := run(2)

	for r := 0; r < rounds; r++ {
		if !reflect.DeepEqual(baseline[r], resumed[r]) {
			t.Fatalf("round %d findings diverge after kill/restart:\n uninterrupted %v\n resumed       %v",
				r+1, baseline[r], resumed[r])
		}
	}
	if !bytes.Equal(baseState, resumedState) {
		t.Fatal("final durable state diverges after kill/restart")
	}
}

// FuzzDecodeTrackerSnapshot asserts the codec's canonical-form
// invariant: any blob that decodes must re-encode byte-identically, and
// no input may panic or over-allocate.
func FuzzDecodeTrackerSnapshot(f *testing.F) {
	c, err := lustre.NewCluster(lustre.Config{NumOSTs: 2, StripeSize: 64 << 10, StripeCount: -1})
	if err != nil {
		f.Fatal(err)
	}
	c.MkdirAll("/w")
	if _, err := c.Create("/w/seed", 64<<10); err != nil {
		f.Fatal(err)
	}
	tr, err := NewTracker(checker.ClusterImages(c), checker.DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tr.EncodeSnapshot())
	if _, err := tr.Check(); err != nil {
		f.Fatal(err)
	}
	f.Add(tr.EncodeSnapshot())
	f.Add(tr.EncodeSnapshot()[:40])
	f.Fuzz(func(t *testing.T, blob []byte) {
		bincodectest.RoundTrip(t, blob, decodeTrackerSnapshot, encodeTrackerSnapshot)
	})
}

// TestOpenFallbackLadder: Open starts a fresh tracker when there is
// nothing to resume — no state directory, no snapshot in it, a snapshot
// from another build — resumes a compatible snapshot, and refuses a
// malformed snapshot or one from another cluster.
func TestOpenFallbackLadder(t *testing.T) {
	c := newCluster(t)
	images := checker.ClusterImages(c)
	opt := checker.DefaultOptions()
	tr := newTracker(t, c)
	if _, err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	saved := t.TempDir()
	if err := tr.SaveState(saved); err != nil {
		t.Fatal(err)
	}
	blob := tr.EncodeSnapshot()
	stateDir := func(blob []byte) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, stateFileName), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	future := append([]byte(nil), blob...)
	future[4] = TrackerCodecVersion + 1

	cases := []struct {
		name    string
		dir     string
		images  []*ldiskfs.Image
		checks  int64 // the opened tracker's round count: 0 = fresh
		log     string
		wantErr error
	}{
		{name: "no state directory", checks: 0},
		{name: "missing snapshot", dir: t.TempDir(), checks: 0, log: "starting fresh"},
		{name: "incompatible build", dir: stateDir(future), checks: 0, log: "incompatible build"},
		{name: "compatible snapshot", dir: saved, checks: 1, log: "resumed tracker state"},
		{name: "malformed snapshot", dir: stateDir(append(append([]byte(nil), blob...), 0)), wantErr: ErrTrackerSnapshot},
		{name: "label mismatch", dir: saved, images: images[:len(images)-1], wantErr: ErrTrackerSnapshotLabels},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			imgs := images
			if tc.images != nil {
				imgs = tc.images
			}
			var logged []string
			got, err := Open(tc.dir, imgs, opt, func(format string, args ...any) {
				logged = append(logged, fmt.Sprintf(format, args...))
			})
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if n := got.Stats().Checks; n != tc.checks {
				t.Errorf("opened tracker has %d checks, want %d", n, tc.checks)
			}
			if tc.log == "" && len(logged) > 0 {
				t.Errorf("unexpected log %q", logged)
			}
			if tc.log != "" && (len(logged) != 1 || !strings.Contains(logged[0], tc.log)) {
				t.Errorf("log %q, want one line containing %q", logged, tc.log)
			}
		})
	}
}
