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
	"strconv"

	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
)

// Edge is the typed view of one edge record (Edges.At): a point-to
// relation from the object at ordinal Src of the same stream (or
// Partial) to the FID Dst.
type Edge struct {
	Src  uint32
	Dst  lustre.FID
	Kind graph.EdgeKind
}

// FIDEdge is an edge with its source resolved to a FID (Partial.FIDEdge).
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

// String reads "ino <n>: <what>". It formats without fmt, so the merge,
// which strings every issue, allocates the same count whether or not a
// collection has just emptied fmt's printer pool.
func (i Issue) String() string {
	return "ino " + strconv.FormatUint(uint64(i.Ino), 10) + ": " + i.What
}

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

// Reset empties p for reuse: its sections keep their storage.
func (p *Partial) Reset() {
	*p = Partial{ServerLabel: p.ServerLabel, Objects: Objects{p.Objects.b[:0]}, Edges: Edges{p.Edges.b[:0]}, Issues: p.Issues[:0]}
}

// FIDEdge returns edge i with its source ordinal resolved against the
// partial's objects.
func (p *Partial) FIDEdge(i int) FIDEdge {
	e := p.Edges.At(i)
	return FIDEdge{Src: p.Objects.FID(int(e.Src)), Dst: e.Dst, Kind: e.Kind}
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
// a fresh single-inode partial: AppendInode into an empty Partial.
func ScanInode(img *ldiskfs.Image, ino ldiskfs.Ino) (*Partial, error) {
	p := &Partial{ServerLabel: img.Label()}
	if err := AppendInode(p, img, ino); err != nil {
		return nil, err
	}
	return p, nil
}

// AppendInode parses one inode as the sweep does and appends its records
// to p: the incremental entry point the online checker uses to consume a
// change feed one inode at a time, into a partial it reuses. An inode the
// bitmap marks free contributes nothing; an allocated one counts as
// scanned and always yields a record — its object, or an issue saying
// why it has none — whatever its mode reads. An edge's source ordinal
// counts p's objects, so p may hold other inodes' records already.
func AppendInode(p *Partial, img *ldiskfs.Image, ino ldiskfs.Ino) error {
	n, err := img.Inode(ino)
	if err != nil {
		return err
	}
	if !img.InodeAllocated(ino) {
		return nil // deallocated: contributes nothing
	}
	p.Stats.InodesScanned++
	scanInode(n, p)
	return nil
}

// InodeStats derives one inode's Stats from the records its parse
// yielded, edges and issues: one inode, its edges, and one dirent read
// for every dirent edge and every zero-FID-in-dirent issue — emit makes
// exactly one of the two per tag the dirent walk yields.
func InodeStats(edges Edges, issues []Issue) Stats {
	s := Stats{InodesScanned: 1, EdgesEmitted: int64(edges.Len())}
	for i := range edges.Len() {
		if edges.Kind(i) == graph.KindDirent {
			s.DirentsRead++
		}
	}
	for _, is := range issues {
		if is.What == zeroDirentFID {
			s.DirentsRead++
		}
	}
	return s
}

// zeroFIDIssue is the issue emit records for a zero destination FID.
func zeroFIDIssue(kind graph.EdgeKind) string { return "zero FID in " + kind.String() }

var zeroDirentFID = zeroFIDIssue(graph.KindDirent)

// zeroFID reports whether a raw 16-byte FID is the zero FID.
func zeroFID(b []byte) bool { return le.Uint64(b)|le.Uint64(b[8:]) == 0 }

// Minimum encoded sizes of one LinkEA entry and one LOVEA stripe: a
// value's length bounds how many edges it can yield.
const linkEntryMin, lovStripeSize = 16 + 2, 4 + 16

// scanInode parses one inode's EAs (and dirents for directories) and
// appends the corresponding object and edge records and issues to p.
// It reads the image in place — one pass over the EA area picks the
// four EAs it reads, and their values and the dirent blocks are walked
// as slices of the image — and copies each destination FID into its
// edge record as the 16 bytes it found, so the only memory it touches
// beyond p's slices, grown at most once for the inode's EAs, is an
// issue's text.
func scanInode(n ldiskfs.Inode, p *Partial) {
	ino, t := n.Ino, n.Type()
	// The four EAs the scanner reads, picked in one pass; nil = absent (a
	// present EA is a non-nil slice of the image even when empty). A
	// repeated name keeps its last value, as a map of the area would,
	// and a damaged area yields none of them.
	var lma, link, lov, ff []byte
	eaErr := n.WalkXattrs(func(name, value []byte) {
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
		lma, link, lov, ff = nil, nil, nil, nil
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
	src := uint32(p.Objects.Len())
	p.Objects.Append(Object{FID: self, Ino: ino, Type: t})

	// The first edge makes room for as many as the EAs can hold; an
	// inode without edges leaves an empty section nil.
	reserve := (len(link)/linkEntryMin + len(lov)/lovStripeSize + 1) * EdgeSize
	emit := func(dst []byte, kind graph.EdgeKind) {
		if zeroFID(dst) {
			p.Issues = append(p.Issues, Issue{Ino: ino, What: zeroFIDIssue(kind)})
			return
		}
		if reserve > 0 {
			p.Edges.b, reserve = grow(p.Edges.b, reserve), 0
		}
		p.Edges.put(src, dst, kind)
		p.Stats.EdgesEmitted++
	}

	// LinkEA: point-backs to parents (namespace), emitted as read. A
	// LinkEA damaged at any entry contributes none of them: what its
	// intact entries emitted is taken back.
	if link != nil {
		edges, issues, emitted := p.Edges, len(p.Issues), p.Stats.EdgesEmitted
		if err := lustre.WalkLinkEA(link, func(parent, _ []byte) { emit(parent, graph.KindLinkEA) }); err != nil {
			p.Edges, p.Issues, p.Stats.EdgesEmitted = edges, p.Issues[:issues], emitted
			p.Issues = append(p.Issues, Issue{Ino: ino, What: "corrupt LinkEA"})
		}
	}

	// LOVEA: layout pointers to stripe objects. A zero object FID is a
	// released stripe slot (kept so later stripes keep their indices),
	// not corruption.
	if lov != nil {
		_, err := lustre.WalkLOVEA(lov, func(_ uint32, object []byte) {
			if !zeroFID(object) {
				emit(object, graph.KindLOVEA)
			}
		})
		if err != nil {
			p.Issues = append(p.Issues, Issue{Ino: ino, What: "corrupt LOVEA"})
		}
	}

	// filter-fid: layout point-back to the owning file.
	if ff != nil {
		if _, err := lustre.DecodeFilterFID(ff); err == nil {
			emit(ff[:16], graph.KindFilterFID)
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
		err := n.WalkDirentTags(func(tag []byte) {
			p.Stats.DirentsRead++
			emit(tag, graph.KindDirent)
		})
		if err != nil {
			p.Issues = slices.Insert(p.Issues, mark, Issue{Ino: ino, What: fmt.Sprintf("dirent damage: %v", err)})
		}
	}
}
