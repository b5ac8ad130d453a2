package agg

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"faultyrank/internal/bincodec"
	"faultyrank/internal/graph"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
)

// This file is the DeltaBuilder's differential oracle: the map-based
// implementation the flat store replaced, kept as it was — one heap
// object per tracked inode under a per-server map, a lazily folded
// sorted order, liveness and claims recounted from scratch by every
// materialisation. Fed the same calls in the same order it interns the
// same IIDs, so everything it returns must DeepEqual the builder's.

type refDelta struct {
	labels  []string
	servers []*refServer
	iids    *fidTable
	dirty   map[uint32]struct{}
}

type refServer struct {
	label   string
	contrib map[ldiskfs.Ino]*inoContrib
	sorted  []ldiskfs.Ino // sorted members as of the last fold
	added   []ldiskfs.Ino // new members since, unsorted
	removed map[ldiskfs.Ino]struct{}
}

// inoContrib is one inode's cached scan result in IID space.
type inoContrib struct {
	objs   []contribObj
	edges  []contribEdge
	issues []scanner.Issue
	stats  scanner.Stats
}

func newRefDelta(labels []string) *refDelta {
	b := &refDelta{labels: labels, iids: newFIDTable(0), dirty: make(map[uint32]struct{})}
	for _, l := range labels {
		b.servers = append(b.servers, &refServer{
			label:   l,
			contrib: make(map[ldiskfs.Ino]*inoContrib),
			removed: make(map[ldiskfs.Ino]struct{}),
		})
	}
	return b
}

func (b *refDelta) markDirty(c *inoContrib) {
	if c == nil {
		return
	}
	for _, o := range c.objs {
		b.dirty[o.iid] = struct{}{}
	}
	for _, e := range c.edges {
		b.dirty[e.src] = struct{}{}
		b.dirty[e.dst] = struct{}{}
	}
}

func (b *refDelta) intern(f lustre.FID) uint32 {
	iid, _ := b.iids.intern(f)
	return iid
}

func (b *refDelta) apply(server int, ino ldiskfs.Ino, p *scanner.Partial) error {
	if server < 0 || server >= len(b.servers) {
		return fmt.Errorf("agg: delta apply for unknown server index %d", server)
	}
	s := b.servers[server]
	c := &inoContrib{issues: p.Issues, stats: p.Stats}
	for j := range p.Objects.Len() {
		o := p.Objects.At(j)
		c.objs = append(c.objs, contribObj{iid: b.intern(o.FID), typ: o.Type})
	}
	for j := range p.Edges.Len() {
		e := p.FIDEdge(j)
		c.edges = append(c.edges, contribEdge{
			src: b.intern(e.Src), dst: b.intern(e.Dst), kind: e.Kind,
		})
	}
	if old, tracked := s.contrib[ino]; tracked {
		b.markDirty(old)
	} else {
		if _, wasRemoved := s.removed[ino]; wasRemoved {
			delete(s.removed, ino)
		}
		s.added = append(s.added, ino)
	}
	b.markDirty(c)
	s.contrib[ino] = c
	return nil
}

func (b *refDelta) remove(server int, ino ldiskfs.Ino) {
	if server < 0 || server >= len(b.servers) {
		return
	}
	s := b.servers[server]
	c, tracked := s.contrib[ino]
	if !tracked {
		return
	}
	b.markDirty(c)
	delete(s.contrib, ino)
	s.removed[ino] = struct{}{}
}

func (b *refDelta) resetDirty() {
	clear(b.dirty)
}

// fold merges the buffered membership changes into the sorted order.
func (s *refServer) fold() {
	if len(s.added) == 0 && len(s.removed) == 0 {
		return
	}
	sort.Slice(s.added, func(i, j int) bool { return s.added[i] < s.added[j] })
	merged := make([]ldiskfs.Ino, 0, len(s.contrib))
	i, j := 0, 0
	for i < len(s.sorted) || j < len(s.added) {
		var ino ldiskfs.Ino
		switch {
		case i >= len(s.sorted):
			ino = s.added[j]
			j++
		case j >= len(s.added):
			ino = s.sorted[i]
			i++
		case s.added[j] < s.sorted[i]:
			ino = s.added[j]
			j++
		case s.added[j] == s.sorted[i]:
			// re-added after a removal that predates the last fold
			ino = s.sorted[i]
			i++
			j++
		default:
			ino = s.sorted[i]
			i++
		}
		if _, gone := s.removed[ino]; gone {
			continue
		}
		// A fold can see the same ino from both streams (removed then
		// re-added between folds lands in added while still in sorted).
		if n := len(merged); n > 0 && merged[n-1] == ino {
			continue
		}
		merged = append(merged, ino)
	}
	s.sorted = merged
	s.added = s.added[:0]
	clear(s.removed)
}

// materializeReference renumbers the live IIDs densely and assembles the
// check's Unified in the canonical (server order, ascending inode) walk.
func (b *refDelta) materializeReference() *Materialized {
	nIID := len(b.iids.fids)
	live := make([]bool, nIID)
	var nEdge int
	for _, s := range b.servers {
		s.fold()
		for _, c := range s.contrib {
			for _, o := range c.objs {
				live[o.iid] = true
			}
			for _, e := range c.edges {
				live[e.src] = true
				live[e.dst] = true
			}
			nEdge += len(c.edges)
		}
	}

	gidOf := make([]uint32, nIID)
	iidOfGID := make([]uint32, 0, nIID)
	for iid, l := range live {
		if l {
			gidOf[iid] = uint32(len(iidOfGID))
			iidOfGID = append(iidOfGID, uint32(iid))
		}
	}
	n := len(iidOfGID)

	u := &Unified{
		FIDs:    make([]lustre.FID, n),
		Present: make([]bool, n),
		Types:   make([]ldiskfs.FileType, n),
		Edges:   make([]graph.Edge, 0, nEdge),
	}
	for g, iid := range iidOfGID {
		u.FIDs[g] = b.iids.fids[iid]
	}
	claims := make([][]ObjectLoc, n)

	// Pass 1: objects claim their FIDs; first claim in canonical order
	// fixes Present and Types, exactly as the batch merge does. Issues
	// fold in alongside, preserving the cold per-server order.
	for _, s := range b.servers {
		for _, ino := range s.sorted {
			c := s.contrib[ino]
			for _, o := range c.objs {
				g := gidOf[o.iid]
				if !u.Present[g] {
					u.Present[g] = true
					u.Types[g] = o.typ
				}
				claims[g] = append(claims[g], ObjectLoc{Server: s.label, Ino: ino})
			}
			for _, is := range c.issues {
				u.Issues = append(u.Issues, fmt.Sprintf("%s: %s", s.label, is))
			}
		}
	}

	setClaimTable(u, claims)

	// Pass 2: edges in canonical order.
	for _, s := range b.servers {
		for _, ino := range s.sorted {
			for _, e := range s.contrib[ino].edges {
				u.Edges = append(u.Edges, graph.Edge{
					Src: gidOf[e.src], Dst: gidOf[e.dst], Kind: e.kind,
				})
			}
		}
	}

	u.gidFn = func(f lustre.FID) (uint32, bool) {
		iid, ok := b.iids.get(f)
		if !ok || int(iid) >= len(live) || !live[iid] {
			return 0, false
		}
		return gidOf[iid], true
	}

	var seeds []uint32
	for iid := range b.dirty {
		if int(iid) < len(live) && live[iid] {
			seeds = append(seeds, gidOf[iid])
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return &Materialized{U: u, IIDOfGID: iidOfGID, NumIIDs: nIID, DirtySeeds: seeds}
}

func (b *refDelta) tracked(server int, ino ldiskfs.Ino) bool {
	if server < 0 || server >= len(b.servers) {
		return false
	}
	_, ok := b.servers[server].contrib[ino]
	return ok
}

func (b *refDelta) trackedCount(server int) int {
	if server < 0 || server >= len(b.servers) {
		return 0
	}
	return len(b.servers[server].contrib)
}

func (b *refDelta) serverPartial(server int) *scanner.Partial {
	if server < 0 || server >= len(b.servers) {
		return &scanner.Partial{}
	}
	s := b.servers[server]
	s.fold()
	out := &scanner.Partial{ServerLabel: s.label}
	for _, ino := range s.sorted {
		c := s.contrib[ino]
		base := out.Objects.Len()
		for _, o := range c.objs {
			out.Objects.Append(scanner.Object{
				FID: b.iids.fids[o.iid], Ino: ino, Type: o.typ,
			})
		}
		for _, e := range c.edges {
			src := base + slices.IndexFunc(c.objs, func(o contribObj) bool { return o.iid == e.src })
			out.Edges.Append(scanner.Edge{
				Src: uint32(src), Dst: b.iids.fids[e.dst], Kind: e.kind,
			})
		}
		out.Issues = append(out.Issues, c.issues...)
		out.Stats.InodesScanned += c.stats.InodesScanned
		out.Stats.DirentsRead += c.stats.DirentsRead
		out.Stats.EdgesEmitted += c.stats.EdgesEmitted
	}
	return out
}

// encodeReference is the FRDB v1 encoder as it read the map-based store.
func (b *refDelta) encodeReference() []byte {
	le := binary.LittleEndian
	var buf []byte
	buf = append(buf, deltaMagic...)
	buf = append(buf, DeltaCodecVersion)

	buf = le.AppendUint16(buf, uint16(len(b.labels)))
	for _, l := range b.labels {
		buf = bincodec.AppendStr16(buf, l)
	}

	buf = le.AppendUint32(buf, uint32(len(b.iids.fids)))
	for _, f := range b.iids.fids {
		buf = le.AppendUint64(buf, f.Seq)
		buf = le.AppendUint32(buf, f.Oid)
		buf = le.AppendUint32(buf, f.Ver)
	}

	dirty := make([]uint32, 0, len(b.dirty))
	for iid := range b.dirty {
		dirty = append(dirty, iid)
	}
	slices.Sort(dirty)
	buf = le.AppendUint32(buf, uint32(len(dirty)))
	for _, iid := range dirty {
		buf = le.AppendUint32(buf, iid)
	}

	for _, s := range b.servers {
		s.fold()
		buf = le.AppendUint32(buf, uint32(len(s.sorted)))
		for _, ino := range s.sorted {
			c := s.contrib[ino]
			buf = le.AppendUint64(buf, uint64(ino))
			buf = le.AppendUint32(buf, uint32(len(c.objs)))
			for _, o := range c.objs {
				buf = le.AppendUint32(buf, o.iid)
				buf = le.AppendUint16(buf, uint16(o.typ))
			}
			buf = le.AppendUint32(buf, uint32(len(c.edges)))
			for _, e := range c.edges {
				buf = le.AppendUint32(buf, e.src)
				buf = le.AppendUint32(buf, e.dst)
				buf = append(buf, byte(e.kind))
			}
			buf = le.AppendUint32(buf, uint32(len(c.issues)))
			for _, is := range c.issues {
				buf = le.AppendUint64(buf, uint64(is.Ino))
				buf = bincodec.AppendStr16(buf, is.What)
			}
			buf = le.AppendUint64(buf, uint64(c.stats.InodesScanned))
			buf = le.AppendUint64(buf, uint64(c.stats.DirentsRead))
			buf = le.AppendUint64(buf, uint64(c.stats.EdgesEmitted))
		}
	}
	return buf
}
