// Package inject introduces the eight inconsistency scenarios of paper
// Fig. 7 — two root-cause variants of each Table I category (Dangling
// Reference, Unreferenced Object, Double Reference, Mismatch) — by
// mutating server images the way the paper edits the extended attributes
// of ldiskfs inodes. Every injection returns the ground truth (which
// object's which field was corrupted), so the checkers' verdicts can be
// scored automatically.
package inject

import (
	"fmt"
	"path"

	"faultyrank/internal/core"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

// Scenario enumerates the Fig. 7 fault cases.
type Scenario uint8

const (
	// DanglingDirent (Dangling Reference, a's property wrong): a
	// directory's entry blocks are destroyed, so its DIRENT property no
	// longer points at its children.
	DanglingDirent Scenario = iota
	// DanglingObjectID (Dangling Reference, b's id wrong): an OST
	// object's LMA is overwritten, so the owning file's LOVEA dangles.
	DanglingObjectID
	// UnrefLOVEADropped (Unreferenced Object, neighbour property wrong):
	// one stripe entry is removed from a file's LOVEA; the object still
	// exists and points back but nothing references it.
	UnrefLOVEADropped
	// UnrefStaleObject (Unreferenced Object, stale identity): the owning
	// file vanishes from the MDT (crash during unlink) leaving its
	// objects pointing at a FID that no longer exists.
	UnrefStaleObject
	// DoubleRefLOVEA (Double Reference, a's property duplicated): a
	// second file's LOVEA is rewritten to claim another file's object.
	DoubleRefLOVEA
	// DoubleRefLMA (Double Reference, b's id duplicated): a second OST
	// object is given the same LMA FID as an existing object.
	DoubleRefLMA
	// MismatchFilterFID (Mismatch, b's property wrong): an object's
	// filter-fid is rewritten so it no longer points back at its owner.
	MismatchFilterFID
	// MismatchFileID (Mismatch, a's id wrong): an MDT file's LMA is
	// overwritten; everything pointing at the file misses it.
	MismatchFileID

	// NumScenarios is the count of the paper's Fig. 7 scenarios.
	NumScenarios = 8

	// DetachedCycle is an *extension* scenario beyond the paper's eight:
	// a directory subtree is severed from the root and its top two
	// directories are rewritten to claim each other coherently — every
	// relation pairs, which the paper declares undetectable (§VI). The
	// checker's reachability pass exists to catch exactly this.
	DetachedCycle Scenario = NumScenarios
)

// String names the scenario as in Fig. 7's grouping.
func (s Scenario) String() string {
	switch s {
	case DanglingDirent:
		return "dangling/dirent-destroyed"
	case DanglingObjectID:
		return "dangling/object-id-corrupt"
	case UnrefLOVEADropped:
		return "unreferenced/lovea-entry-dropped"
	case UnrefStaleObject:
		return "unreferenced/stale-object"
	case DoubleRefLOVEA:
		return "double-ref/lovea-duplicated"
	case DoubleRefLMA:
		return "double-ref/lma-duplicated"
	case MismatchFilterFID:
		return "mismatch/filter-fid-corrupt"
	case MismatchFileID:
		return "mismatch/file-id-corrupt"
	case DetachedCycle:
		return "extension/detached-cycle"
	default:
		return fmt.Sprintf("scenario(%d)", uint8(s))
	}
}

// Category returns the Table I category of the scenario.
func (s Scenario) Category() string {
	switch s {
	case DanglingDirent, DanglingObjectID:
		return "Dangling Reference"
	case UnrefLOVEADropped, UnrefStaleObject:
		return "Unreferenced Object"
	case DoubleRefLOVEA, DoubleRefLMA:
		return "Double Reference"
	case DetachedCycle:
		return "Coherent Corruption (extension)"
	default:
		return "Mismatch"
	}
}

// Injection records what was corrupted: the ground truth against which a
// checker's verdict is scored.
type Injection struct {
	Scenario    Scenario
	Description string

	// VictimFID identifies the corrupted object by the FID under which
	// the *healthy* metadata knew it (for id corruptions: the old FID,
	// which now dangles).
	VictimFID lustre.FID
	// NewFID is the wrong identity now stored, for id corruptions.
	NewFID lustre.FID
	// Field is the ground-truth faulty field.
	Field core.Field
	// PeerFID is the healthy counterpart of the broken relation (the
	// object whose metadata can repair the victim), when applicable.
	PeerFID lustre.FID
}

// bogusSeq marks FIDs fabricated by the injector.
const bogusSeq uint64 = 0xFA017

var bogusCounter uint32

func bogusFID() lustre.FID {
	bogusCounter++
	return lustre.FID{Seq: bogusSeq, Oid: bogusCounter}
}

// Inject applies scenario s to the cluster, corrupting metadata related
// to the file at filePath (a regular file with at least two stripe
// objects for the layout scenarios; its parent directory for namespace
// scenarios). The cluster's in-memory bookkeeping becomes stale after
// injection by design — only the on-image metadata matters to checkers.
func Inject(c *lustre.Cluster, s Scenario, filePath string) (*Injection, error) {
	switch s {
	case DanglingDirent:
		return injectDanglingDirent(c, filePath)
	case DanglingObjectID:
		return injectDanglingObjectID(c, filePath)
	case UnrefLOVEADropped:
		return injectUnrefLOVEADropped(c, filePath)
	case UnrefStaleObject:
		return injectUnrefStaleObject(c, filePath)
	case DoubleRefLOVEA:
		return injectDoubleRefLOVEA(c, filePath)
	case DoubleRefLMA:
		return injectDoubleRefLMA(c, filePath)
	case MismatchFilterFID:
		return injectMismatchFilterFID(c, filePath)
	case MismatchFileID:
		return injectMismatchFileID(c, filePath)
	case DetachedCycle:
		return injectDetachedCycle(c, filePath)
	default:
		return nil, fmt.Errorf("inject: unknown scenario %d", s)
	}
}

// injectDetachedCycle severs filePath's parent directory A from the
// tree and rewires A and a fresh child directory B into a coherent
// parent cycle: A.LinkEA -> B, B.DIRENT -> A. Every relation pairs; only
// reachability analysis can see the island.
func injectDetachedCycle(c *lustre.Cluster, p string) (*Injection, error) {
	if _, err := c.Stat(p); err != nil {
		return nil, err
	}
	aPath := parentOf(p)
	if aPath == "/" {
		return nil, fmt.Errorf("inject: %s must live below a non-root directory", p)
	}
	a, err := c.Stat(aPath)
	if err != nil {
		return nil, err
	}
	parent, err := c.Stat(parentOf(aPath))
	if err != nil {
		return nil, err
	}
	bPath := aPath + "/cycle-sub"
	if err := c.Mkdir(bPath); err != nil {
		return nil, err
	}
	b, err := c.Stat(bPath)
	if err != nil {
		return nil, err
	}
	pimg, err := c.EntryImage(parent)
	if err != nil {
		return nil, err
	}
	aimg, err := c.EntryImage(a)
	if err != nil {
		return nil, err
	}
	bimg, err := c.EntryImage(b)
	if err != nil {
		return nil, err
	}
	// Sever A from its parent.
	if err := pimg.RemoveDirent(parent.Ino, baseOf(aPath)); err != nil {
		return nil, err
	}
	// A claims B as its parent...
	link, err := lustre.EncodeLinkEA([]lustre.LinkEntry{{Parent: b.FID, Name: "looped"}})
	if err != nil {
		return nil, err
	}
	if err := aimg.SetXattr(a.Ino, lustre.XattrLink, link); err != nil {
		return nil, err
	}
	// ...and B answers with a DIRENT for A.
	if err := bimg.AddDirent(b.Ino, ldiskfs.Dirent{
		Ino: a.Ino, Type: ldiskfs.TypeDir, Tag: a.FID.Bytes(), Name: "looped",
	}); err != nil {
		return nil, err
	}
	return &Injection{
		Scenario: DetachedCycle,
		Description: fmt.Sprintf("severed %s and rewired it into a coherent parent cycle with %s",
			aPath, bPath),
		VictimFID: a.FID,
		Field:     core.FieldProperty,
		PeerFID:   b.FID,
	}, nil
}

// fileAndLayout resolves a file path to its entry and decoded layout.
func fileAndLayout(c *lustre.Cluster, p string) (lustre.Entry, lustre.Layout, error) {
	ent, err := c.Stat(p)
	if err != nil {
		return ent, lustre.Layout{}, err
	}
	if ent.Type != ldiskfs.TypeFile {
		return ent, lustre.Layout{}, fmt.Errorf("inject: %s is not a regular file", p)
	}
	img, err := c.EntryImage(ent)
	if err != nil {
		return ent, lustre.Layout{}, err
	}
	raw, ok, err := img.GetXattr(ent.Ino, lustre.XattrLOV)
	if err != nil || !ok {
		return ent, lustre.Layout{}, fmt.Errorf("inject: %s has no LOVEA (%v)", p, err)
	}
	layout, err := lustre.DecodeLOVEA(raw)
	return ent, layout, err
}

// objectLoc resolves a stripe object to its image and inode.
func objectLoc(c *lustre.Cluster, s lustre.StripeEntry) (*ldiskfs.Image, ldiskfs.Ino, error) {
	loc, ok := c.Lookup(s.ObjectFID)
	if !ok || loc.OnMDT() {
		return nil, 0, fmt.Errorf("inject: object %v not found", s.ObjectFID)
	}
	img, err := c.ImageFor(loc)
	return img, loc.Ino, err
}

func injectDanglingDirent(c *lustre.Cluster, p string) (*Injection, error) {
	ent, err := c.Stat(p)
	if err != nil {
		return nil, err
	}
	parentPath := parentOf(p)
	dir, err := c.Stat(parentPath)
	if err != nil {
		return nil, err
	}
	// The paper's case destroys the directory's pointing metadata
	// wholesale ("it does not point to any other vertex"): the DIRENT
	// blocks and its LinkEA.
	dimg, err := c.EntryImage(dir)
	if err != nil {
		return nil, err
	}
	ranges, err := dimg.DirentBlockRanges(dir.Ino)
	if err != nil {
		return nil, err
	}
	for _, r := range ranges {
		zero := make([]byte, r[1]-r[0])
		if err := dimg.CorruptBytes(r[0], zero); err != nil {
			return nil, err
		}
	}
	if err := dimg.RemoveXattr(dir.Ino, lustre.XattrLink); err != nil {
		return nil, err
	}
	_ = ent
	return &Injection{
		Scenario:    DanglingDirent,
		Description: fmt.Sprintf("destroyed DIRENT blocks and LinkEA of %s", parentPath),
		VictimFID:   dir.FID,
		Field:       core.FieldProperty,
	}, nil
}

func injectDanglingObjectID(c *lustre.Cluster, p string) (*Injection, error) {
	ent, layout, err := fileAndLayout(c, p)
	if err != nil {
		return nil, err
	}
	stripe := layout.Stripes[0]
	img, ino, err := objectLoc(c, stripe)
	if err != nil {
		return nil, err
	}
	wrong := bogusFID()
	if err := img.SetXattr(ino, lustre.XattrLMA, lustre.EncodeLMA(wrong)); err != nil {
		return nil, err
	}
	return &Injection{
		Scenario:    DanglingObjectID,
		Description: fmt.Sprintf("rewrote LMA of stripe 0 of %s: %v -> %v", p, stripe.ObjectFID, wrong),
		VictimFID:   stripe.ObjectFID,
		NewFID:      wrong,
		Field:       core.FieldID,
		PeerFID:     ent.FID,
	}, nil
}

func injectUnrefLOVEADropped(c *lustre.Cluster, p string) (*Injection, error) {
	ent, layout, err := fileAndLayout(c, p)
	if err != nil {
		return nil, err
	}
	if len(layout.Stripes) < 2 {
		return nil, fmt.Errorf("inject: %s needs >=2 stripes", p)
	}
	victim := layout.Stripes[len(layout.Stripes)-1]
	layout.Stripes = layout.Stripes[:len(layout.Stripes)-1]
	enc, err := lustre.EncodeLOVEA(layout)
	if err != nil {
		return nil, err
	}
	img, err := c.EntryImage(ent)
	if err != nil {
		return nil, err
	}
	if err := img.SetXattr(ent.Ino, lustre.XattrLOV, enc); err != nil {
		return nil, err
	}
	return &Injection{
		Scenario:    UnrefLOVEADropped,
		Description: fmt.Sprintf("dropped stripe %v from LOVEA of %s", victim.ObjectFID, p),
		VictimFID:   ent.FID,
		Field:       core.FieldProperty,
		PeerFID:     victim.ObjectFID,
	}, nil
}

func injectUnrefStaleObject(c *lustre.Cluster, p string) (*Injection, error) {
	ent, layout, err := fileAndLayout(c, p)
	if err != nil {
		return nil, err
	}
	// Simulate a crash mid-unlink: the MDT inode and its dirent vanish,
	// the OST objects stay behind pointing at a now-phantom file FID.
	parentPath := parentOf(p)
	dir, err := c.Stat(parentPath)
	if err != nil {
		return nil, err
	}
	dimg, err := c.EntryImage(dir)
	if err != nil {
		return nil, err
	}
	if err := dimg.RemoveDirent(dir.Ino, baseOf(p)); err != nil {
		return nil, err
	}
	fimg, err := c.EntryImage(ent)
	if err != nil {
		return nil, err
	}
	if err := fimg.FreeInode(ent.Ino); err != nil {
		return nil, err
	}
	return &Injection{
		Scenario: UnrefStaleObject,
		Description: fmt.Sprintf("removed MDT inode of %s, stranding %d objects",
			p, len(layout.Stripes)),
		VictimFID: ent.FID, // the phantom owner
		Field:     core.FieldID,
		PeerFID:   layout.Stripes[0].ObjectFID,
	}, nil
}

func injectDoubleRefLOVEA(c *lustre.Cluster, p string) (*Injection, error) {
	ent, layout, err := fileAndLayout(c, p)
	if err != nil {
		return nil, err
	}
	// Create an impostor file whose LOVEA claims p's first object.
	impostorPath := p + ".impostor"
	imp, err := c.Create(impostorPath, 64<<10)
	if err != nil {
		return nil, err
	}
	iimg, err := c.EntryImage(imp)
	if err != nil {
		return nil, err
	}
	raw, _, err := iimg.GetXattr(imp.Ino, lustre.XattrLOV)
	if err != nil {
		return nil, err
	}
	impLayout, err := lustre.DecodeLOVEA(raw)
	if err != nil {
		return nil, err
	}
	stolen := layout.Stripes[0]
	impLayout.Stripes[0] = stolen
	enc, err := lustre.EncodeLOVEA(impLayout)
	if err != nil {
		return nil, err
	}
	if err := iimg.SetXattr(imp.Ino, lustre.XattrLOV, enc); err != nil {
		return nil, err
	}
	_ = ent
	return &Injection{
		Scenario: DoubleRefLOVEA,
		Description: fmt.Sprintf("%s's LOVEA duplicated to claim %v (owned by %s)",
			impostorPath, stolen.ObjectFID, p),
		VictimFID: imp.FID,
		Field:     core.FieldProperty,
		PeerFID:   stolen.ObjectFID,
	}, nil
}

func injectDoubleRefLMA(c *lustre.Cluster, p string) (*Injection, error) {
	ent, layout, err := fileAndLayout(c, p)
	if err != nil {
		return nil, err
	}
	victim := layout.Stripes[0]
	// A second object on a different OST claims the same FID but points
	// back at nothing credible (fresh bogus owner).
	ostIdx := (int(victim.OSTIndex) + 1) % len(c.OSTs)
	img := c.OSTs[ostIdx].Img
	ino, err := img.AllocInode(ldiskfs.TypeObject)
	if err != nil {
		return nil, err
	}
	if err := img.SetXattr(ino, lustre.XattrLMA, lustre.EncodeLMA(victim.ObjectFID)); err != nil {
		return nil, err
	}
	ff := lustre.EncodeFilterFID(lustre.FilterFID{ParentFID: bogusFID(), StripeIndex: 0})
	if err := img.SetXattr(ino, lustre.XattrFilterFID, ff); err != nil {
		return nil, err
	}
	return &Injection{
		Scenario: DoubleRefLMA,
		Description: fmt.Sprintf("second inode on ost%d claims LMA %v (object of %s)",
			ostIdx, victim.ObjectFID, p),
		VictimFID: victim.ObjectFID,
		Field:     core.FieldID,
		PeerFID:   ent.FID,
	}, nil
}

func injectMismatchFilterFID(c *lustre.Cluster, p string) (*Injection, error) {
	ent, layout, err := fileAndLayout(c, p)
	if err != nil {
		return nil, err
	}
	stripe := layout.Stripes[0]
	img, ino, err := objectLoc(c, stripe)
	if err != nil {
		return nil, err
	}
	wrongOwner := bogusFID()
	ff := lustre.EncodeFilterFID(lustre.FilterFID{ParentFID: wrongOwner, StripeIndex: 0})
	if err := img.SetXattr(ino, lustre.XattrFilterFID, ff); err != nil {
		return nil, err
	}
	return &Injection{
		Scenario: MismatchFilterFID,
		Description: fmt.Sprintf("filter-fid of %v rewritten: %v -> %v",
			stripe.ObjectFID, ent.FID, wrongOwner),
		VictimFID: stripe.ObjectFID,
		Field:     core.FieldProperty,
		PeerFID:   ent.FID,
	}, nil
}

func injectMismatchFileID(c *lustre.Cluster, p string) (*Injection, error) {
	ent, _, err := fileAndLayout(c, p)
	if err != nil {
		return nil, err
	}
	wrong := bogusFID()
	img, err := c.EntryImage(ent)
	if err != nil {
		return nil, err
	}
	if err := img.SetXattr(ent.Ino, lustre.XattrLMA, lustre.EncodeLMA(wrong)); err != nil {
		return nil, err
	}
	return &Injection{
		Scenario:    MismatchFileID,
		Description: fmt.Sprintf("LMA of %s rewritten: %v -> %v", p, ent.FID, wrong),
		VictimFID:   ent.FID,
		NewFID:      wrong,
		Field:       core.FieldID,
		PeerFID:     ent.FID, // the dirent/linkEA peers still name the old FID
	}, nil
}

// PickTarget returns a file every scenario can corrupt: the first
// regular file, walking the namespace depth-first in directory order,
// larger than two 64 KiB stripes.
func PickTarget(c *lustre.Cluster) (string, error) {
	var pick func(dir string) (string, error)
	pick = func(dir string) (string, error) {
		ents, err := c.ReadDir(dir)
		if err != nil {
			return "", err
		}
		for _, de := range ents {
			p := path.Join(dir, de.Name)
			switch de.Type {
			case ldiskfs.TypeDir:
				if target, err := pick(p); target != "" || err != nil {
					return target, err
				}
			case ldiskfs.TypeFile:
				if ent, err := c.Stat(p); err == nil && ent.Size > 2*64<<10 {
					return p, nil
				}
			}
		}
		return "", nil
	}
	target, err := pick("/")
	if err == nil && target == "" {
		err = fmt.Errorf("inject: no multi-stripe file found")
	}
	return target, err
}

func parentOf(p string) string {
	for i := len(p) - 1; i > 0; i-- {
		if p[i] == '/' {
			return p[:i]
		}
	}
	return "/"
}

func baseOf(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}
