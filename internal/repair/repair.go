// Package repair applies the checker's recommended repairs back to the
// server images (paper §III-F): faulty properties are overwritten from
// their healthy counterparts, wrong identities are restored from the FID
// their peers still reference, bogus pointers are dropped, and objects
// whose relations cannot be reconstructed are parked under /lost+found —
// where FaultyRank, unlike LFSCK, can recreate the lost owner file from
// the stranded objects' filter-fids.
//
// The engine is idempotent: re-applying a repair that already holds is a
// no-op, so overlapping findings are harmless.
package repair

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"faultyrank/internal/agg"
	"faultyrank/internal/checker"
	"faultyrank/internal/core"
	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

// LostFoundSeq is the reserved FID sequence for objects the engine
// creates (the /lost+found directory and recreated owner files).
const LostFoundSeq uint64 = 0x200000FF0

// Summary reports what the engine did.
type Summary struct {
	Applied int
	Skipped int
	Log     []string
}

func (s *Summary) logf(format string, args ...interface{}) {
	s.Log = append(s.Log, fmt.Sprintf(format, args...))
}

// Engine applies repair actions against a set of server images.
type Engine struct {
	images map[string]*ldiskfs.Image
	u      *agg.Unified

	// DefaultStripeSize seeds LOVEAs the engine must create from
	// scratch; the checker cannot recover the original stripe size when
	// the whole EA is gone.
	DefaultStripeSize uint32

	nextLostOid uint32
	lfIno       ldiskfs.Ino // /lost+found inode on the MDT, 0 until made
	lfFID       lustre.FID
}

// NewEngine builds an engine over the images of a finished checker run.
func NewEngine(images []*ldiskfs.Image, res *checker.Result) *Engine {
	byLabel := make(map[string]*ldiskfs.Image, len(images))
	for _, img := range images {
		byLabel[img.Label()] = img
	}
	return &Engine{
		images:            byLabel,
		u:                 res.Unified,
		DefaultStripeSize: 64 << 10,
	}
}

// mdt returns the primary metadata target image (the lowest-numbered
// MDT label — the one holding the root and /lost+found).
func (e *Engine) mdt() (*ldiskfs.Image, error) {
	best := ""
	for label := range e.images {
		if !strings.HasPrefix(label, "mdt") {
			continue
		}
		if best == "" || label < best {
			best = label
		}
	}
	if best == "" {
		return nil, errors.New("repair: no MDT image")
	}
	return e.images[best], nil
}

// locate resolves a FID to its first claiming inode.
func (e *Engine) locate(f lustre.FID) (*ldiskfs.Image, ldiskfs.Ino, error) {
	g, ok := e.u.GID(f)
	if !ok || e.u.ClaimCount(g) == 0 {
		return nil, 0, fmt.Errorf("repair: %v has no physical inode", f)
	}
	c := e.u.Claim(g, 0)
	img := e.images[c.Server]
	if img == nil {
		return nil, 0, fmt.Errorf("repair: unknown server %q", c.Server)
	}
	return img, c.Ino, nil
}

// Apply executes every repair action attached to the findings. Actions
// that cannot be applied are logged and counted as skipped, never fatal:
// a checker must fix what it can.
func (e *Engine) Apply(findings []checker.Finding) *Summary {
	sum := &Summary{}
	// Stale objects sharing one phantom owner are regrouped so the owner
	// is recreated exactly once with a full layout.
	staleByOwner := make(map[lustre.FID][]lustre.FID)
	for _, f := range findings {
		for _, a := range f.Repairs {
			if a.Op == core.RepairQuarantine && a.Kind == graph.KindFilterFID {
				staleByOwner[a.SourceFID] = append(staleByOwner[a.SourceFID], a.TargetFID)
				continue
			}
			if err := e.apply(a, sum); err != nil {
				sum.Skipped++
				sum.logf("skip %v: %v", a, err)
			} else {
				sum.Applied++
			}
		}
	}
	owners := make([]lustre.FID, 0, len(staleByOwner))
	for o := range staleByOwner {
		owners = append(owners, o)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i].Less(owners[j]) })
	for _, owner := range owners {
		objs := staleByOwner[owner]
		sort.Slice(objs, func(i, j int) bool { return objs[i].Less(objs[j]) })
		if err := e.recreateOwner(owner, objs, sum); err != nil {
			sum.Skipped++
			sum.logf("skip recreate %v: %v", owner, err)
		} else {
			sum.Applied++
		}
	}
	return sum
}

func (e *Engine) apply(a checker.RepairAction, sum *Summary) error {
	switch a.Op {
	case core.RepairSetID:
		return e.setID(a, sum)
	case core.RepairSetProperty:
		return e.setProperty(a, sum)
	case core.RepairDropPointer:
		return e.dropPointer(a, sum)
	case core.RepairQuarantine:
		return e.quarantine(a, sum)
	default:
		return fmt.Errorf("unknown op %v", a.Op)
	}
}

// setID restores an object's identity: its LMA is overwritten with the
// FID its peers reference.
func (e *Engine) setID(a checker.RepairAction, sum *Summary) error {
	if a.NewID.IsZero() {
		return errors.New("set-id without resolved identity")
	}
	img, ino, err := e.locate(a.TargetFID)
	if err != nil {
		return err
	}
	if err := img.SetXattr(ino, lustre.XattrLMA, lustre.EncodeLMA(a.NewID)); err != nil {
		return err
	}
	sum.logf("set-id %s/%d: %v -> %v", img.Label(), ino, a.TargetFID, a.NewID)
	return nil
}

// setProperty rewrites one pointing field of the target so it references
// the source, reconstructing the value from the source's own metadata.
func (e *Engine) setProperty(a checker.RepairAction, sum *Summary) error {
	switch a.Kind {
	case graph.KindDirent:
		return e.restoreDirent(a, sum)
	case graph.KindLinkEA:
		return e.restoreLinkEA(a, sum)
	case graph.KindLOVEA:
		return e.restoreLOVEA(a, sum)
	case graph.KindFilterFID:
		return e.restoreFilterFID(a, sum)
	default:
		return fmt.Errorf("set-property of kind %v unsupported", a.Kind)
	}
}

// restoreDirent re-adds the directory entry for source inside target,
// recovering the name from the child's LinkEA.
func (e *Engine) restoreDirent(a checker.RepairAction, sum *Summary) error {
	dirImg, dirIno, err := e.locate(a.TargetFID)
	if err != nil {
		return err
	}
	childImg, childIno, err := e.locate(a.SourceFID)
	if err != nil {
		return err
	}
	name := ""
	if raw, ok, _ := childImg.GetXattr(childIno, lustre.XattrLink); ok {
		if links, err := lustre.DecodeLinkEA(raw); err == nil {
			for _, l := range links {
				if l.Parent == a.TargetFID {
					name = l.Name
					break
				}
			}
		}
	}
	if name == "" {
		name = "obj-" + strings.Trim(a.SourceFID.String(), "[]")
	}
	typ, err := childImg.Type(childIno)
	if err != nil {
		return err
	}
	err = dirImg.AddDirent(dirIno, ldiskfs.Dirent{
		Ino: childIno, Type: typ, Tag: a.SourceFID.Bytes(), Name: name,
	})
	if errors.Is(err, ldiskfs.ErrExist) {
		return nil // idempotent
	}
	if err != nil {
		return err
	}
	sum.logf("restored dirent %q in %v -> %v", name, a.TargetFID, a.SourceFID)
	return nil
}

// restoreLinkEA points the target's LinkEA back at the source directory,
// recovering the name from the directory's entry for the target.
func (e *Engine) restoreLinkEA(a checker.RepairAction, sum *Summary) error {
	childImg, childIno, err := e.locate(a.TargetFID)
	if err != nil {
		return err
	}
	dirImg, dirIno, err := e.locate(a.SourceFID)
	if err != nil {
		return err
	}
	name := ""
	if ents, derr := dirImg.Dirents(dirIno); derr == nil {
		for _, de := range ents {
			if lustre.FIDFromBytes(de.Tag[:]) == a.TargetFID {
				name = de.Name
				break
			}
		}
	}
	if name == "" {
		name = "obj-" + strings.Trim(a.TargetFID.String(), "[]")
	}
	var links []lustre.LinkEntry
	if raw, ok, _ := childImg.GetXattr(childIno, lustre.XattrLink); ok {
		if got, err := lustre.DecodeLinkEA(raw); err == nil {
			links = got
		}
	}
	for _, l := range links {
		if l.Parent == a.SourceFID && l.Name == name {
			return nil // already holds
		}
	}
	links = append(links, lustre.LinkEntry{Parent: a.SourceFID, Name: name})
	enc, err := lustre.EncodeLinkEA(links)
	if err != nil {
		return err
	}
	if err := childImg.SetXattr(childIno, lustre.XattrLink, enc); err != nil {
		return err
	}
	sum.logf("restored linkEA of %v -> %v (%q)", a.TargetFID, a.SourceFID, name)
	return nil
}

// restoreLOVEA re-adds the stripe entry for source in target's layout,
// recovering the stripe index from the object's filter-fid and the OST
// index from the object's physical location.
func (e *Engine) restoreLOVEA(a checker.RepairAction, sum *Summary) error {
	fileImg, fileIno, err := e.locate(a.TargetFID)
	if err != nil {
		return err
	}
	objImg, objIno, err := e.locate(a.SourceFID)
	if err != nil {
		return err
	}
	stripeIdx := uint32(0)
	if raw, ok, _ := objImg.GetXattr(objIno, lustre.XattrFilterFID); ok {
		if ff, err := lustre.DecodeFilterFID(raw); err == nil {
			stripeIdx = ff.StripeIndex
		}
	}
	ostIdx, err := ostIndexOf(objImg.Label())
	if err != nil {
		return err
	}
	layout := lustre.Layout{StripeSize: e.DefaultStripeSize}
	if raw, ok, _ := fileImg.GetXattr(fileIno, lustre.XattrLOV); ok {
		if got, err := lustre.DecodeLOVEA(raw); err == nil {
			layout = got
		}
	}
	for int(stripeIdx) >= len(layout.Stripes) {
		layout.Stripes = append(layout.Stripes, lustre.StripeEntry{})
	}
	if layout.Stripes[stripeIdx].ObjectFID == a.SourceFID {
		return nil // already holds
	}
	layout.Stripes[stripeIdx] = lustre.StripeEntry{OSTIndex: uint32(ostIdx), ObjectFID: a.SourceFID}
	enc, err := lustre.EncodeLOVEA(layout)
	if err != nil {
		return err
	}
	if err := fileImg.SetXattr(fileIno, lustre.XattrLOV, enc); err != nil {
		return err
	}
	sum.logf("restored LOVEA[%d] of %v -> %v", stripeIdx, a.TargetFID, a.SourceFID)
	return nil
}

// restoreFilterFID points the object's filter-fid back at its owner,
// recovering the stripe index from the owner's layout.
func (e *Engine) restoreFilterFID(a checker.RepairAction, sum *Summary) error {
	objImg, objIno, err := e.locate(a.TargetFID)
	if err != nil {
		return err
	}
	fileImg, fileIno, err := e.locate(a.SourceFID)
	if err != nil {
		return err
	}
	stripeIdx := -1
	if raw, ok, _ := fileImg.GetXattr(fileIno, lustre.XattrLOV); ok {
		if layout, err := lustre.DecodeLOVEA(raw); err == nil {
			for i, s := range layout.Stripes {
				if s.ObjectFID == a.TargetFID {
					stripeIdx = i
					break
				}
			}
		}
	}
	if stripeIdx < 0 {
		return fmt.Errorf("owner %v does not reference %v", a.SourceFID, a.TargetFID)
	}
	ff := lustre.EncodeFilterFID(lustre.FilterFID{
		ParentFID: a.SourceFID, StripeIndex: uint32(stripeIdx),
	})
	if err := objImg.SetXattr(objIno, lustre.XattrFilterFID, ff); err != nil {
		return err
	}
	sum.logf("restored filter-fid of %v -> %v[%d]", a.TargetFID, a.SourceFID, stripeIdx)
	return nil
}

// dropPointer removes target's bogus pointer of the given kind toward
// source.
func (e *Engine) dropPointer(a checker.RepairAction, sum *Summary) error {
	img, ino, err := e.locate(a.TargetFID)
	if err != nil {
		return err
	}
	switch a.Kind {
	case graph.KindDirent:
		ents, _ := img.Dirents(ino)
		for _, de := range ents {
			if lustre.FIDFromBytes(de.Tag[:]) == a.SourceFID {
				if err := img.RemoveDirent(ino, de.Name); err != nil {
					return err
				}
			}
		}
	case graph.KindLOVEA:
		raw, ok, _ := img.GetXattr(ino, lustre.XattrLOV)
		if !ok {
			return nil
		}
		layout, err := lustre.DecodeLOVEA(raw)
		if err != nil {
			return err
		}
		changed := false
		for i := range layout.Stripes {
			if layout.Stripes[i].ObjectFID == a.SourceFID {
				layout.Stripes[i] = lustre.StripeEntry{} // released slot
				changed = true
			}
		}
		if !changed {
			return nil
		}
		enc, err := lustre.EncodeLOVEA(layout)
		if err != nil {
			return err
		}
		if err := img.SetXattr(ino, lustre.XattrLOV, enc); err != nil {
			return err
		}
	case graph.KindLinkEA:
		raw, ok, _ := img.GetXattr(ino, lustre.XattrLink)
		if !ok {
			return nil
		}
		links, err := lustre.DecodeLinkEA(raw)
		if err != nil {
			return err
		}
		kept := links[:0]
		for _, l := range links {
			if l.Parent != a.SourceFID {
				kept = append(kept, l)
			}
		}
		enc, err := lustre.EncodeLinkEA(kept)
		if err != nil {
			return err
		}
		if err := img.SetXattr(ino, lustre.XattrLink, enc); err != nil {
			return err
		}
	case graph.KindFilterFID:
		if err := img.RemoveXattr(ino, lustre.XattrFilterFID); err != nil &&
			!errors.Is(err, ldiskfs.ErrNotExist) {
			return err
		}
	default:
		return fmt.Errorf("drop-pointer of kind %v unsupported", a.Kind)
	}
	sum.logf("dropped %v pointer of %v toward %v", a.Kind, a.TargetFID, a.SourceFID)
	return nil
}

func ostIndexOf(label string) (int, error) {
	if !strings.HasPrefix(label, "ost") {
		return 0, fmt.Errorf("repair: %q is not an OST label", label)
	}
	return strconv.Atoi(strings.TrimPrefix(label, "ost"))
}
