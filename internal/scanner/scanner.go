// Package scanner extracts Lustre metadata from raw ldiskfs-style server
// images into partial graphs (paper §IV-A). A scanner runs once per
// server (MDT and every OST), sweeping the image's block groups: it
// iterates the inode table, parses extended attributes (LMA, LinkEA,
// LOVEA, filter-fid) and, on directories, hops to the dirent blocks.
// The output is an edge list keyed by cluster-unique FIDs plus the list
// of physically present objects, which the aggregator later merges into
// the unified metadata graph.
package scanner

import (
	"fmt"
	"slices"

	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

// FIDEdge is a point-to relation between two FIDs, before GID remapping:
// the typed view of one edge record (Edges.At).
type FIDEdge struct {
	Src, Dst lustre.FID
	Kind     graph.EdgeKind
}

// Object records one physically scanned object: an allocated inode that
// carries (or should carry) an identity. It is the typed view of one
// object record (Objects.At).
type Object struct {
	FID  lustre.FID
	Ino  ldiskfs.Ino
	Type ldiskfs.FileType
}

// Issue is a structural problem found while parsing the image — damaged
// EAs, unidentifiable inodes, malformed dirents. These are not rank-based
// findings; they are raw parse facts the checker folds into its report.
type Issue struct {
	Ino  ldiskfs.Ino
	What string
}

func (i Issue) String() string { return fmt.Sprintf("ino %d: %s", i.Ino, i.What) }

// Stats counts the scanner's work.
type Stats struct {
	InodesScanned int64
	DirentsRead   int64
	EdgesEmitted  int64
}

// Add accumulates d into s.
func (s *Stats) Add(d Stats) {
	s.InodesScanned += d.InodesScanned
	s.DirentsRead += d.DirentsRead
	s.EdgesEmitted += d.EdgesEmitted
}

// Partial is the scan result of one server: the partial metadata graph
// the paper's scanners ship to the MDS aggregator.
type Partial struct {
	ServerLabel string
	Objects     Objects
	Edges       Edges
	Issues      []Issue
	Stats       Stats
}

// ScanImage extracts the partial graph of one server image: a compat
// wrapper reassembling the streaming scanner's chunk sequence (released
// in group order, so the result is deterministic independent of worker
// interleaving) into one bulk Partial.
func ScanImage(img *ldiskfs.Image, workers int) (*Partial, error) {
	var ps PartialSink
	if err := ScanImageToSink(img, workers, 0, &ps); err != nil {
		return nil, err
	}
	return ps.Partial(), nil // labelled by the stream's Final chunk at the latest
}

// ScanInode parses one inode's EAs (and dirents, for directories) into
// a fresh single-inode partial: the incremental entry point the online
// checker uses to consume a change feed one inode at a time.
func ScanInode(img *ldiskfs.Image, ino ldiskfs.Ino) (*Partial, error) {
	t, err := img.Type(ino)
	if err != nil {
		return nil, err
	}
	p := &Partial{ServerLabel: img.Label()}
	if t == ldiskfs.TypeFree {
		return p, nil // deallocated: contributes nothing
	}
	p.Stats.InodesScanned = 1
	scanInode(img, ino, t, p)
	return p, nil
}

// scanInode parses one inode's EAs (and dirents for directories) and
// appends the corresponding object and edge records and issues to p. It
// reads the image in place — the EA area, the LinkEA and LOVEA values
// and the dirent blocks are walked as slices of the image — so the only
// memory it touches beyond p's slices is an issue's text.
func scanInode(img *ldiskfs.Image, ino ldiskfs.Ino, t ldiskfs.FileType, p *Partial) {
	// The four EAs the scanner reads; nil = absent (a present EA is a
	// non-nil slice of the image even when empty). A repeated name keeps
	// its last value, as a map of the area would.
	var lma, link, lov, ff []byte
	eaErr := img.WalkXattrs(ino, func(name, value []byte) {
		switch string(name) {
		case lustre.XattrLMA:
			lma = value
		case lustre.XattrLink:
			link = value
		case lustre.XattrLOV:
			lov = value
		case lustre.XattrFilterFID:
			ff = value
		}
	})
	if eaErr != nil {
		p.Issues = append(p.Issues, Issue{Ino: ino, What: fmt.Sprintf("unreadable EAs: %v", eaErr)})
	}

	// Identity: the LMA self-FID.
	var self lustre.FID
	if lma != nil {
		if fid, err := lustre.DecodeLMA(lma); err == nil && !fid.IsZero() {
			self = fid
		} else {
			p.Issues = append(p.Issues, Issue{Ino: ino, What: "corrupt LMA"})
		}
	} else if eaErr == nil {
		p.Issues = append(p.Issues, Issue{Ino: ino, What: "missing LMA"})
	}
	if self.IsZero() {
		// Without an identity the object cannot participate in the FID
		// graph; record it and move on (LFSCK's oi_scrub territory).
		return
	}
	p.Objects.Append(Object{FID: self, Ino: ino, Type: t})

	emit := func(dst lustre.FID, kind graph.EdgeKind) {
		if dst.IsZero() {
			p.Issues = append(p.Issues, Issue{Ino: ino, What: fmt.Sprintf("zero FID in %v", kind)})
			return
		}
		p.Edges.Append(FIDEdge{Src: self, Dst: dst, Kind: kind})
		p.Stats.EdgesEmitted++
	}

	// LinkEA: point-backs to parents (namespace). A LinkEA damaged at
	// any entry contributes none of them.
	if link != nil {
		err := lustre.WalkLinkEA(link, func(parent lustre.FID, _ []byte) { emit(parent, graph.KindLinkEA) })
		if err != nil {
			p.Issues = append(p.Issues, Issue{Ino: ino, What: "corrupt LinkEA"})
		}
	}

	// LOVEA: layout pointers to stripe objects. A zero object FID is a
	// released stripe slot (kept so later stripes keep their indices),
	// not corruption.
	if lov != nil {
		_, err := lustre.WalkLOVEA(lov, func(_ uint32, object lustre.FID) {
			if !object.IsZero() {
				emit(object, graph.KindLOVEA)
			}
		})
		if err != nil {
			p.Issues = append(p.Issues, Issue{Ino: ino, What: "corrupt LOVEA"})
		}
	}

	// filter-fid: layout point-back to the owning file.
	if ff != nil {
		if f, err := lustre.DecodeFilterFID(ff); err == nil {
			emit(f.ParentFID, graph.KindFilterFID)
		} else {
			p.Issues = append(p.Issues, Issue{Ino: ino, What: "corrupt filter-fid"})
		}
	}

	// Directory entries: namespace pointers to children, read from the
	// directory's data blocks (the scanner's only non-sequential hop).
	// Damage is known only once every block has been walked, but its
	// issue precedes the zero-FID issues of the entries that survive.
	if t == ldiskfs.TypeDir {
		mark := len(p.Issues)
		err := img.WalkDirentTags(ino, func(tag []byte) {
			p.Stats.DirentsRead++
			emit(lustre.FIDFromBytes(tag), graph.KindDirent)
		})
		if err != nil {
			p.Issues = slices.Insert(p.Issues, mark, Issue{Ino: ino, What: fmt.Sprintf("dirent damage: %v", err)})
		}
	}
}
