package scanner_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"faultyrank/internal/graph"
	"faultyrank/internal/inject"
	"faultyrank/internal/ldiskfs"
	"faultyrank/internal/lustre"
	"faultyrank/internal/scanner"
	"faultyrank/internal/workload"
)

// scanInodeReference is the map-based parse the scanner used before it
// walked EAs and dirents in place, kept verbatim as the executable
// specification scanInode is tested against (and nothing else should
// call): which objects, edges and issues an inode yields, and in what
// order. It materialises every EA, LinkEA entry, stripe and dirent.
func scanInodeReference(img *ldiskfs.Image, ino ldiskfs.Ino, t ldiskfs.FileType, p *scanner.Partial) {
	xs, err := img.Xattrs(ino)
	if err != nil {
		p.Issues = append(p.Issues, scanner.Issue{Ino: ino, What: fmt.Sprintf("unreadable EAs: %v", err)})
		xs = nil
	}

	// Identity: the LMA self-FID.
	var self lustre.FID
	if raw, ok := xs[lustre.XattrLMA]; ok {
		if fid, err := lustre.DecodeLMA(raw); err == nil && !fid.IsZero() {
			self = fid
		} else {
			p.Issues = append(p.Issues, scanner.Issue{Ino: ino, What: "corrupt LMA"})
		}
	} else if xs != nil {
		p.Issues = append(p.Issues, scanner.Issue{Ino: ino, What: "missing LMA"})
	}
	if self.IsZero() {
		return
	}
	src := uint32(p.Objects.Len())
	p.Objects.Append(scanner.Object{FID: self, Ino: ino, Type: t})

	emit := func(dst lustre.FID, kind graph.EdgeKind) {
		if dst.IsZero() {
			p.Issues = append(p.Issues, scanner.Issue{Ino: ino, What: fmt.Sprintf("zero FID in %v", kind)})
			return
		}
		p.Edges.Append(scanner.Edge{Src: src, Dst: dst, Kind: kind})
		p.Stats.EdgesEmitted++
	}

	if raw, ok := xs[lustre.XattrLink]; ok {
		if links, err := lustre.DecodeLinkEA(raw); err == nil {
			for _, l := range links {
				emit(l.Parent, graph.KindLinkEA)
			}
		} else {
			p.Issues = append(p.Issues, scanner.Issue{Ino: ino, What: "corrupt LinkEA"})
		}
	}

	if raw, ok := xs[lustre.XattrLOV]; ok {
		if layout, err := lustre.DecodeLOVEA(raw); err == nil {
			for _, s := range layout.Stripes {
				if s.ObjectFID.IsZero() {
					continue
				}
				emit(s.ObjectFID, graph.KindLOVEA)
			}
		} else {
			p.Issues = append(p.Issues, scanner.Issue{Ino: ino, What: "corrupt LOVEA"})
		}
	}

	if raw, ok := xs[lustre.XattrFilterFID]; ok {
		if ff, err := lustre.DecodeFilterFID(raw); err == nil {
			emit(ff.ParentFID, graph.KindFilterFID)
		} else {
			p.Issues = append(p.Issues, scanner.Issue{Ino: ino, What: "corrupt filter-fid"})
		}
	}

	if t == ldiskfs.TypeDir {
		ents, err := img.Dirents(ino)
		if err != nil {
			p.Issues = append(p.Issues, scanner.Issue{Ino: ino, What: fmt.Sprintf("dirent damage: %v", err)})
		}
		for _, de := range ents {
			p.Stats.DirentsRead++
			emit(lustre.FIDFromBytes(de.Tag[:]), graph.KindDirent)
		}
	}
}

// referenceEmitter is the chunk emitter as it was before it filled a
// reused scratch chunk — append each group into the open chunk, hand
// the chunk itself to the sink — kept as the specification of where
// chunk boundaries fall, which chunk a group's stats ride on, and that
// an edge's source ordinal counts the stream's objects.
type referenceEmitter struct {
	label   string
	limit   int
	objects int
	cur     scanner.Chunk
	chunks  []*scanner.Chunk
}

func (e *referenceEmitter) flush(final bool) {
	c := e.cur
	c.ServerLabel, c.Seq, c.Final = e.label, len(e.chunks), final
	e.cur = scanner.Chunk{}
	e.chunks = append(e.chunks, &c)
}

func (e *referenceEmitter) maybeFlush() {
	if e.cur.Entries() >= e.limit {
		e.flush(false)
	}
}

func (e *referenceEmitter) add(p *scanner.Partial) {
	base := uint32(e.objects)
	e.objects += p.Objects.Len()
	for j := range p.Objects.Len() {
		o := p.Objects.At(j)
		e.cur.Objects.Append(o)
		e.maybeFlush()
	}
	for j := range p.Edges.Len() {
		ed := p.Edges.At(j)
		ed.Src += base
		e.cur.Edges.Append(ed)
		e.maybeFlush()
	}
	for _, is := range p.Issues {
		e.cur.Issues = append(e.cur.Issues, is)
		e.maybeFlush()
	}
	e.cur.Stats.InodesScanned += p.Stats.InodesScanned
	e.cur.Stats.DirentsRead += p.Stats.DirentsRead
	e.cur.Stats.EdgesEmitted += p.Stats.EdgesEmitted
}

// referenceStream is the chunk stream of a sequential reference sweep.
func referenceStream(t testing.TB, img *ldiskfs.Image, chunkEntries int) []*scanner.Chunk {
	t.Helper()
	if chunkEntries <= 0 {
		chunkEntries = scanner.DefaultChunkEntries
	}
	em := &referenceEmitter{label: img.Label(), limit: chunkEntries}
	for g := 0; g < img.Groups(); g++ {
		var p scanner.Partial
		err := img.AllocatedInodesInGroup(g, func(ino ldiskfs.Ino, ft ldiskfs.FileType) error {
			p.Stats.InodesScanned++
			scanInodeReference(img, ino, ft, &p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		em.add(&p)
	}
	em.flush(true)
	return em.chunks
}

// reassemble concatenates a chunk stream into its Partial.
func reassemble(t testing.TB, chunks []*scanner.Chunk) *scanner.Partial {
	t.Helper()
	var ps scanner.PartialSink
	for _, c := range chunks {
		if err := ps.Emit(c); err != nil {
			t.Fatal(err)
		}
	}
	return ps.Partial()
}

type recSink struct{ chunks []*scanner.Chunk }

func (r *recSink) Emit(c *scanner.Chunk) error {
	r.chunks = append(r.chunks, c)
	return nil
}

// assertParity requires the scanner's chunk stream for img to be
// DeepEqual to the reference stream — objects, edges, issues and their
// order, chunk boundaries, per-chunk stats — at every worker count and
// chunk size given, and ScanInode to agree inode by inode.
func assertParity(t testing.TB, img *ldiskfs.Image, workers, chunkSizes []int) {
	t.Helper()
	for _, size := range chunkSizes {
		want := referenceStream(t, img, size)
		for _, w := range workers {
			var got recSink
			if err := scanner.ScanImageToSink(img, w, size, &got); err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(want, got.chunks) {
				continue
			}
			wp, gp := reassemble(t, want), reassemble(t, got.chunks)
			if !reflect.DeepEqual(wp, gp) {
				t.Fatalf("%s workers %d chunk %d: partial diverges from the reference parse\nwant %d objects %d edges issues %v stats %+v\n got %d objects %d edges issues %v stats %+v",
					img.Label(), w, size, wp.Objects.Len(), wp.Edges.Len(), wp.Issues, wp.Stats, gp.Objects.Len(), gp.Edges.Len(), gp.Issues, gp.Stats)
			}
			t.Fatalf("%s workers %d chunk %d: same partial, different chunk stream (%d chunks, want %d)",
				img.Label(), w, size, len(got.chunks), len(want))
		}
	}
	err := img.AllocatedInodes(func(ino ldiskfs.Ino, ft ldiskfs.FileType) error {
		want := &scanner.Partial{ServerLabel: img.Label()}
		if ft != ldiskfs.TypeFree {
			want.Stats.InodesScanned = 1
			scanInodeReference(img, ino, ft, want)
		}
		got, err := scanner.ScanInode(img, ino)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s ino %d: ScanInode diverges from the reference parse:\nwant %+v\n got %+v", img.Label(), ino, want, got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func clusterImages(c *lustre.Cluster) []*ldiskfs.Image {
	var images []*ldiskfs.Image
	for _, mdt := range c.MDTs {
		images = append(images, mdt.Img)
	}
	for _, ost := range c.OSTs {
		images = append(images, ost.Img)
	}
	return images
}

func newCluster(t testing.TB, cfg lustre.Config) *lustre.Cluster {
	t.Helper()
	cfg.Geometry = ldiskfs.CompactGeometry()
	c, err := lustre.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var (
	allWorkers = []int{1, 2, 3, 8}
	allChunks  = []int{1, 16, 0}
)

// TestScanParityAgedCluster: the benchmark's cluster shape (8 OSTs,
// full striping, aged with churn), at every worker count and chunk size.
func TestScanParityAgedCluster(t *testing.T) {
	c := newCluster(t, lustre.Config{NumOSTs: 8, StripeSize: 64 << 10, StripeCount: -1})
	if _, err := workload.Age(c, workload.AgeSpec{TargetMDTInodes: 3000, ChurnFraction: 0.15, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, img := range clusterImages(c) {
		assertParity(t, img, allWorkers, allChunks)
	}
}

// faultedCluster is a small cluster with the structures a parse can
// trip over: a directory big enough for an indirect dirent block, a
// file with enough hard links to push its EAs into an overflow block,
// renames, a symlink, and a released stripe slot.
func faultedCluster(t testing.TB, cfg lustre.Config) *lustre.Cluster {
	t.Helper()
	c := newCluster(t, cfg)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.MkdirAll("/big"))
	must(c.MkdirAll("/a/b/c"))
	for i := 0; i < 320; i++ {
		_, err := c.Create(fmt.Sprintf("/big/file-%04d", i), int64(i%5)*64<<10)
		must(err)
	}
	for i := 0; i < 12; i++ {
		must(c.Link("/big/file-0007", fmt.Sprintf("/a/b/hard-%02d", i)))
	}
	must(c.Rename("/big/file-0100", "/a/b/c/moved"))
	must(c.Rename("/a/b", "/a/bb"))
	must(c.Unlink("/big/file-0200"))
	must(c.Symlink("/big/file-0001", "/a/sym"))
	must(c.Truncate("/big/file-0004", 64<<10))
	return c
}

// TestScanParityNamespaceShapes: hard links, renames, truncation,
// overflow EAs and indirect dirent blocks, single-MDT and DNE.
func TestScanParityNamespaceShapes(t *testing.T) {
	for _, cfg := range []lustre.Config{
		{NumOSTs: 4, StripeSize: 64 << 10, StripeCount: -1},
		{NumOSTs: 3, NumMDTs: 3, StripeSize: 64 << 10, StripeCount: 2},
	} {
		for _, img := range clusterImages(faultedCluster(t, cfg)) {
			assertParity(t, img, allWorkers, allChunks)
		}
	}
}

// TestScanParityInjectedFaults: every Fig. 7 scenario (and the detached
// cycle) leaves images the two parses read identically.
func TestScanParityInjectedFaults(t *testing.T) {
	for s := inject.Scenario(0); s <= inject.DetachedCycle; s++ {
		c := faultedCluster(t, lustre.Config{NumOSTs: 4, StripeSize: 64 << 10, StripeCount: -1})
		if _, err := inject.Inject(c, s, "/big/file-0013"); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		for _, img := range clusterImages(c) {
			assertParity(t, img, []int{1, 3}, []int{16, 0})
		}
	}
}

// TestScanParityHandMadeDamage builds, one per inode, the damage shapes
// whose handling is easy to get subtly wrong when the parse stops
// materialising what it reads, checks that each really produces the
// issue it is meant to, and holds the whole image to the reference.
func TestScanParityHandMadeDamage(t *testing.T) {
	c := faultedCluster(t, lustre.Config{NumOSTs: 4, StripeSize: 64 << 10, StripeCount: -1})
	img := c.MDT.Img
	stat := func(p string) lustre.Entry {
		t.Helper()
		e, err := c.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	want := map[ldiskfs.Ino][]string{}

	// A LinkEA cut inside its last entry: none of the twelve intact
	// entries before it may yield an edge.
	manyLinks := stat("/big/file-0007")
	raw, _, _ := img.GetXattr(manyLinks.Ino, lustre.XattrLink)
	must(img.SetXattr(manyLinks.Ino, lustre.XattrLink, raw[:len(raw)-3]))
	want[manyLinks.Ino] = []string{"corrupt LinkEA"}

	// A zero parent in an intact LinkEA, and a zero stripe next to a
	// live one: an issue for the first, silence for the second.
	zeroParent := stat("/big/file-0008")
	link, _ := lustre.EncodeLinkEA([]lustre.LinkEntry{{Name: "file-0008"}, {Parent: lustre.RootFID, Name: "x"}})
	must(img.SetXattr(zeroParent.Ino, lustre.XattrLink, link))
	lov, _ := lustre.EncodeLOVEA(lustre.Layout{StripeSize: 64 << 10, Stripes: []lustre.StripeEntry{{}, {OSTIndex: 1, ObjectFID: lustre.FID{Seq: lustre.OSTSeqBase + 1, Oid: 99}}}})
	must(img.SetXattr(zeroParent.Ino, lustre.XattrLOV, lov))
	want[zeroParent.Ino] = []string{fmt.Sprintf("zero FID in %v", graph.KindLinkEA)}

	// An LMA present but empty is corrupt, not missing.
	emptyLMA := stat("/big/file-0009")
	must(img.SetXattr(emptyLMA.Ino, lustre.XattrLMA, nil))
	want[emptyLMA.Ino] = []string{"corrupt LMA"}

	// An EA count the area cannot back: unreadable, and therefore not
	// also "missing LMA".
	badCount := stat("/big/file-0010")
	off, _ := img.InodeOffset(badCount.Ino)
	must(img.CorruptBytes(off+128, []byte{0xFF, 0xFF}))
	want[badCount.Ino] = []string{"unreadable EAs: ldiskfs: "}

	// Allocated in the bitmap, typed free in the record.
	typedFree := stat("/big/file-0011")
	off, _ = img.InodeOffset(typedFree.Ino)
	must(img.CorruptBytes(off, []byte{0, 0}))
	want[typedFree.Ino] = []string{"unreadable EAs: ldiskfs: inode not allocated"}

	// A directory with a zeroed tag in its first block and a malformed
	// entry in its third: the damage is found after the zero tag is
	// read, and reported before it.
	big := stat("/big")
	blocks, err := img.DirentBlockRanges(big.Ino)
	must(err)
	must(img.CorruptBytes(blocks[0][0]+8, make([]byte, 16)))
	must(img.CorruptBytes(blocks[2][0]+25, []byte{0}))
	want[big.Ino] = []string{"dirent damage: ldiskfs: malformed dirent at offset 0", fmt.Sprintf("zero FID in %v", graph.KindDirent)}

	// A zero parent, then an entry cut short: the LinkEA is corrupt, and
	// the zero-FID issue its intact first entry raised is taken back with
	// everything else it yielded.
	zeroThenCut := stat("/big/file-0012")
	link, _ = lustre.EncodeLinkEA([]lustre.LinkEntry{{Name: "file-0012"}, {Parent: lustre.RootFID, Name: "x"}})
	must(img.SetXattr(zeroThenCut.Ino, lustre.XattrLink, link[:len(link)-1]))
	want[zeroThenCut.Ino] = []string{"corrupt LinkEA"}

	// A repeated name, hand-encoded into the inline area: a zero LMA,
	// the LinkEA, then the real LMA. The last one wins, as in Xattrs'
	// map, so the inode keeps its identity and raises nothing.
	repeated := stat("/big/file-0015")
	lma := repeated.FID.Bytes()
	link, _ = lustre.EncodeLinkEA([]lustre.LinkEntry{{Parent: stat("/big").FID, Name: "file-0015"}})
	area := binary.LittleEndian.AppendUint16(nil, 3)
	for _, ea := range []struct {
		name  string
		value []byte
	}{{lustre.XattrLMA, make([]byte, 16)}, {lustre.XattrLink, link}, {lustre.XattrLMA, lma[:]}} {
		area = append(append(area, byte(len(ea.name))), ea.name...)
		area = append(binary.LittleEndian.AppendUint16(area, uint16(len(ea.value))), ea.value...)
	}
	off, _ = img.InodeOffset(repeated.Ino)
	must(img.CorruptBytes(off+ptrOverflow, make([]byte, 8)))
	must(img.CorruptBytes(off+128, area))
	want[repeated.Ino] = nil

	// An LMA one byte short of a FID.
	shortLMA := stat("/big/file-0016")
	lma = shortLMA.FID.Bytes()
	must(img.SetXattr(shortLMA.Ino, lustre.XattrLMA, lma[:15]))
	want[shortLMA.Ino] = []string{"corrupt LMA"}

	// An EA overflow pointer past the image's last block.
	wildOverflow := stat("/big/file-0017")
	off, _ = img.InodeOffset(wildOverflow.Ino)
	must(img.CorruptBytes(off+ptrOverflow, binary.LittleEndian.AppendUint64(nil, 1<<40)))
	want[wildOverflow.Ino] = []string{"unreadable EAs: ldiskfs: block 1099511627776 out of range"}

	// A LOVEA whose stripe count runs past its value: no stripe of it
	// may yield an edge.
	overrun := stat("/big/file-0018")
	raw, _, _ = img.GetXattr(overrun.Ino, lustre.XattrLOV)
	binary.LittleEndian.PutUint16(raw[8:], binary.LittleEndian.Uint16(raw[8:])+1)
	must(img.SetXattr(overrun.Ino, lustre.XattrLOV, raw))
	want[overrun.Ino] = []string{"corrupt LOVEA"}

	// An OST object whose filter-fid names no parent, and one whose
	// filter-fid is a byte short.
	ost := c.OSTs[0].Img
	var objs []ldiskfs.Ino
	_ = ost.AllocatedInodes(func(ino ldiskfs.Ino, _ ldiskfs.FileType) error { objs = append(objs, ino); return nil })
	noParent, shortFF := objs[len(objs)-1], objs[len(objs)-2]
	must(ost.SetXattr(noParent, lustre.XattrFilterFID, lustre.EncodeFilterFID(lustre.FilterFID{StripeIndex: 1})))
	must(ost.SetXattr(shortFF, lustre.XattrFilterFID, lustre.EncodeFilterFID(lustre.FilterFID{ParentFID: lustre.RootFID})[:19]))
	wantOST := map[ldiskfs.Ino][]string{
		noParent: {fmt.Sprintf("zero FID in %v", graph.KindFilterFID)},
		shortFF:  {"corrupt filter-fid"},
	}

	assertIssues := func(label string, p *scanner.Partial, want map[ldiskfs.Ino][]string) {
		t.Helper()
		got := map[ldiskfs.Ino][]string{}
		for _, is := range p.Issues {
			got[is.Ino] = append(got[is.Ino], is.What)
		}
		for ino, issues := range want {
			if len(got[ino]) != len(issues) {
				t.Errorf("%s ino %d: issues %q, want %q", label, ino, got[ino], issues)
				continue
			}
			for i, w := range issues {
				if !strings.HasPrefix(got[ino][i], w) {
					t.Errorf("%s ino %d: issue %d is %q, want %q", label, ino, i, got[ino][i], w)
				}
			}
		}
	}
	p, err := scanner.ScanImage(img, 3)
	must(err)
	assertIssues("MDT", p, want)
	for j := range p.Edges.Len() {
		e := p.FIDEdge(j)
		if e.Src == manyLinks.FID && e.Kind == graph.KindLinkEA || e.Src == zeroThenCut.FID && e.Kind == graph.KindLinkEA {
			t.Fatalf("edge %v emitted from a LinkEA damaged further on", e)
		}
		if e.Src == overrun.FID && e.Kind == graph.KindLOVEA {
			t.Fatalf("edge %v emitted from a LOVEA whose count overruns it", e)
		}
	}
	var kept bool
	for j := range p.Objects.Len() {
		if o := p.Objects.At(j); o.Ino == repeated.Ino {
			kept = o.FID == repeated.FID
		}
	}
	if !kept {
		t.Errorf("ino %d: the repeated LMA did not keep the last value's identity", repeated.Ino)
	}
	op, err := scanner.ScanImage(ost, 2)
	must(err)
	if len(op.Issues) != 2 {
		t.Errorf("OST issues %v, want exactly the two planted", op.Issues)
	}
	assertIssues("OST", op, wantOST)
	assertParity(t, img, allWorkers, allChunks)
	assertParity(t, ost, []int{1, 3}, []int{16, 0})
}

// fuzzTarget is one image of the fuzz cluster with the byte ranges worth
// damaging: allocated inode records, EA overflow blocks, indirect
// blocks and dirent blocks.
type fuzzTarget struct {
	raw     []byte
	regions [][2]int64
}

var fuzzTargets = sync.OnceValue(func() []fuzzTarget {
	var tb fatalTB
	c := faultedCluster(tb, lustre.Config{NumOSTs: 2, StripeSize: 64 << 10, StripeCount: -1})
	var out []fuzzTarget
	for _, img := range clusterImages(c) {
		out = append(out, fuzzTarget{raw: img.Bytes(), regions: damageRegions(img)})
	}
	return out
})

// fatalTB lets the once-built fuzz cluster use the test helpers.
type fatalTB struct{ testing.TB }

func (fatalTB) Helper()           {}
func (fatalTB) Fatal(args ...any) { panic(fmt.Sprint(args...)) }

// Record offsets of the block pointers the parse follows, and where a
// data block lives, from the layout ldiskfs documents: EA-overflow and
// indirect pointers at 44 and 52, the first direct dirent pointer at
// 60; data blocks after each group's two bitmap blocks and inode table,
// groups after the one superblock block.
const ptrOverflow, ptrIndirect, ptrDirect0 = 44, 52, 60

func blockRange(geom ldiskfs.Geometry, blk uint64) [2]int64 {
	bs := int64(geom.BlockSize)
	meta := 2 + int64(geom.InodesPerGroup*geom.InodeSize+geom.BlockSize-1)/bs
	dataPer := int64(geom.BlocksPerGroup) - meta
	idx := int64(blk - 1)
	off := bs + idx/dataPer*int64(geom.BlocksPerGroup)*bs + (meta+idx%dataPer)*bs
	return [2]int64{off, off + bs}
}

// damageRegions lists an image's parse-relevant byte ranges.
func damageRegions(img *ldiskfs.Image) [][2]int64 {
	geom := img.Geometry()
	var regions [][2]int64
	_ = img.AllocatedInodes(func(ino ldiskfs.Ino, ft ldiskfs.FileType) error {
		off, _ := img.InodeOffset(ino)
		regions = append(regions, [2]int64{off, off + int64(geom.InodeSize)})
		for _, ptr := range []int64{ptrOverflow, ptrIndirect} {
			if blk := binary.LittleEndian.Uint64(img.Bytes()[off+ptr:]); blk != 0 {
				regions = append(regions, blockRange(geom, blk))
			}
		}
		if ft == ldiskfs.TypeDir {
			dirents, _ := img.DirentBlockRanges(ino)
			regions = append(regions, dirents...)
		}
		return nil
	})
	return regions
}

// TestDamageRegionsLocateBlocks: the fuzz target's layout arithmetic
// agrees with ldiskfs about where a directory's first dirent block is,
// and the fuzz cluster really has an overflow and an indirect block.
func TestDamageRegionsLocateBlocks(t *testing.T) {
	c := faultedCluster(t, lustre.Config{NumOSTs: 2, StripeSize: 64 << 10, StripeCount: -1})
	img := c.MDT.Img
	var overflow, indirect int
	_ = img.AllocatedInodes(func(ino ldiskfs.Ino, ft ldiskfs.FileType) error {
		off, _ := img.InodeOffset(ino)
		rec := img.Bytes()[off:]
		if binary.LittleEndian.Uint64(rec[ptrOverflow:]) != 0 {
			overflow++
		}
		if binary.LittleEndian.Uint64(rec[ptrIndirect:]) != 0 {
			indirect++
		}
		if ft == ldiskfs.TypeDir {
			rs, _ := img.DirentBlockRanges(ino)
			first := binary.LittleEndian.Uint64(rec[ptrDirect0:])
			if len(rs) > 0 && blockRange(img.Geometry(), first) != rs[0] {
				t.Fatalf("dir %d: block %d computed at %v, ldiskfs has it at %v", ino, first, blockRange(img.Geometry(), first), rs[0])
			}
		}
		return nil
	})
	if overflow == 0 || indirect == 0 {
		t.Fatalf("fuzz cluster MDT has %d EA overflow blocks and %d indirect blocks; want both", overflow, indirect)
	}
}

// FuzzScanParity overwrites one byte inside an inode record, an EA
// overflow block, an indirect block or a dirent block of a small
// cluster's image and requires the in-place parse to read the damaged
// image exactly as the reference parse does.
func FuzzScanParity(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed*7919, uint32(seed*131), byte(seed*37+1))
	}
	f.Add(int64(3), uint32(128), byte(0xFF))       // an EA count
	f.Add(int64(3), uint32(0), byte(0))            // a type field: allocated but typed free
	f.Add(int64(205894), uint32(3379), byte(0xA1)) // an overflow pointer past 2^63: once a panic in blockData
	// The shapes TestScanParityHandMadeDamage builds that one byte can
	// make: an LMA one byte short (the MDT root's, an OST object's), an
	// overflow pointer past the last block, a LOVEA and a LinkEA whose
	// counts overrun their values.
	f.Add(int64(0), uint32(162), byte(15))
	f.Add(int64(1), uint32(160), byte(15))
	f.Add(int64(0), uint32(49), byte(1))
	f.Add(int64(66), uint32(202), byte(2))
	f.Add(int64(0), uint32(137), byte(2))
	f.Fuzz(func(t *testing.T, seed int64, offset uint32, b byte) {
		targets := fuzzTargets()
		if seed < 0 {
			seed = -(seed + 1)
		}
		tg := targets[seed%int64(len(targets))]
		r := tg.regions[seed/int64(len(targets))%int64(len(tg.regions))]
		raw := append([]byte(nil), tg.raw...)
		raw[r[0]+int64(offset)%(r[1]-r[0])] = b
		img, err := ldiskfs.FromBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		assertParity(t, img, []int{3}, []int{16})
	})
}
