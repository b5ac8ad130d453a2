package ldiskfs

import (
	"errors"
	"fmt"
	"slices"
)

// Common errors.
var (
	ErrBadImage     = errors.New("ldiskfs: not a valid image")
	ErrBadInode     = errors.New("ldiskfs: invalid inode number")
	ErrNotAllocated = errors.New("ldiskfs: inode not allocated")
	ErrNoSpace      = errors.New("ldiskfs: out of space")
	ErrNotDir       = errors.New("ldiskfs: not a directory")
	ErrExist        = errors.New("ldiskfs: entry already exists")
	ErrNotExist     = errors.New("ldiskfs: entry does not exist")
	ErrTooLarge     = errors.New("ldiskfs: value too large")
)

// Image is an in-memory ldiskfs-style disk image. All state lives in the
// flat byte buffer — nothing is cached in Go structures — so serializing
// an image is a copy of Bytes() and the scanner genuinely parses raw
// bytes. Images grow by whole block groups on demand.
//
// Image is not safe for concurrent mutation; concurrent readers are fine.
type Image struct {
	geom Geometry
	buf  []byte
	// dirty tracks inodes whose metadata changed since the last
	// ClearDirty — the change feed an *online* checker consumes (the
	// simulation counterpart of Lustre's ChangeLog; see package online).
	// It is in-memory only: serialized images carry no dirty state, just
	// like a remounted file system starts with a fresh changelog.
	dirty map[Ino]struct{}
}

// New creates an empty image with one block group.
func New(geom Geometry) (*Image, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	im := &Image{geom: geom}
	im.buf = make([]byte, superblockBlocks*geom.BlockSize)
	le.PutUint64(im.buf[sbMagicOff:], Magic)
	le.PutUint32(im.buf[sbBlockSizeOff:], uint32(geom.BlockSize))
	le.PutUint32(im.buf[sbInodeSizeOff:], uint32(geom.InodeSize))
	le.PutUint32(im.buf[sbInoPerGrpOff:], uint32(geom.InodesPerGroup))
	le.PutUint32(im.buf[sbBlkPerGrpOff:], uint32(geom.BlocksPerGroup))
	im.addGroup()
	return im, nil
}

// MustNew is New for known-good geometries (panics on error).
func MustNew(geom Geometry) *Image {
	im, err := New(geom)
	if err != nil {
		panic(err)
	}
	return im
}

// FromBytes adopts a serialized image (no copy) after validating its
// superblock. This is how scanners and injectors open server images.
func FromBytes(b []byte) (*Image, error) {
	if len(b) < 48 || le.Uint64(b[sbMagicOff:]) != Magic {
		return nil, ErrBadImage
	}
	geom := Geometry{
		BlockSize:      int(le.Uint32(b[sbBlockSizeOff:])),
		InodeSize:      int(le.Uint32(b[sbInodeSizeOff:])),
		InodesPerGroup: int(le.Uint32(b[sbInoPerGrpOff:])),
		BlocksPerGroup: int(le.Uint32(b[sbBlkPerGrpOff:])),
	}
	if err := geom.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadImage, err)
	}
	groups := int(le.Uint32(b[sbGroupCountOff:]))
	want := superblockBlocks*geom.BlockSize + groups*geom.groupBytes()
	if groups < 1 || len(b) != want {
		return nil, fmt.Errorf("%w: size %d, want %d (%d groups)", ErrBadImage, len(b), want, groups)
	}
	return &Image{geom: geom, buf: b}, nil
}

// Bytes returns the raw image. The slice aliases the live image.
func (im *Image) Bytes() []byte { return im.buf }

// Geometry returns the image geometry.
func (im *Image) Geometry() Geometry { return im.geom }

// Label returns the image label (e.g. "mdt0", "ost3").
func (im *Image) Label() string {
	n := int(le.Uint32(im.buf[sbLabelLenOff:]))
	if n <= 0 || n > sbLabelMax {
		return ""
	}
	return string(im.buf[sbLabelOff : sbLabelOff+n])
}

// SetLabel stores the image label (truncated to 64 bytes).
func (im *Image) SetLabel(s string) {
	if len(s) > sbLabelMax {
		s = s[:sbLabelMax]
	}
	le.PutUint32(im.buf[sbLabelLenOff:], uint32(len(s)))
	copy(im.buf[sbLabelOff:sbLabelOff+sbLabelMax], s)
}

// Groups returns the number of block groups.
func (im *Image) Groups() int { return int(le.Uint32(im.buf[sbGroupCountOff:])) }

// InodeCount returns the number of allocated inodes.
func (im *Image) InodeCount() int64 { return int64(le.Uint64(im.buf[sbInodeCountOff:])) }

// BlockCount returns the number of allocated data blocks.
func (im *Image) BlockCount() int64 { return int64(le.Uint64(im.buf[sbBlockCountOff:])) }

// MaxInode returns the highest valid inode number in the image.
func (im *Image) MaxInode() Ino { return Ino(im.Groups() * im.geom.InodesPerGroup) }

func (im *Image) addInodeCount(d int64) {
	le.PutUint64(im.buf[sbInodeCountOff:], uint64(im.InodeCount()+d))
}

func (im *Image) addBlockCount(d int64) {
	le.PutUint64(im.buf[sbBlockCountOff:], uint64(im.BlockCount()+d))
}

// addGroup appends one zeroed block group and updates the superblock.
func (im *Image) addGroup() {
	im.buf = append(im.buf, make([]byte, im.geom.groupBytes())...)
	le.PutUint32(im.buf[sbGroupCountOff:], uint32(im.Groups()+1))
}

// --- group/block/inode addressing ----------------------------------------

// groupBase returns the byte offset of group g.
func (im *Image) groupBase(g int) int {
	return superblockBlocks*im.geom.BlockSize + g*im.geom.groupBytes()
}

// group sub-areas, as byte offsets from the image start.
func (im *Image) inodeBitmap(g int) []byte {
	base := im.groupBase(g)
	return im.buf[base : base+im.geom.InodesPerGroup/8]
}

func (im *Image) blockBitmap(g int) []byte {
	base := im.groupBase(g) + im.geom.BlockSize
	return im.buf[base : base+(im.geom.dataBlocksPerGroup()+7)/8]
}

// InodeOffset returns the byte offset of inode ino's record in the
// image. Exported for the fault injector, which corrupts raw bytes.
func (im *Image) InodeOffset(ino Ino) (int64, error) {
	if ino == 0 || ino > im.MaxInode() {
		return 0, fmt.Errorf("%w: %d", ErrBadInode, ino)
	}
	idx := int(ino - 1)
	g := idx / im.geom.InodesPerGroup
	slot := idx % im.geom.InodesPerGroup
	off := im.groupBase(g) + 2*im.geom.BlockSize + slot*im.geom.InodeSize
	return int64(off), nil
}

// inode returns the inode record slice (header + inline EA area).
func (im *Image) inode(ino Ino) ([]byte, error) {
	off, err := im.InodeOffset(ino)
	if err != nil {
		return nil, err
	}
	return im.buf[off : off+int64(im.geom.InodeSize)], nil
}

// blockSlot resolves global data-block number blk (1-based; 0 is the
// nil pointer) to its group and slot. Block pointers are read from
// possibly corrupted records, so the range check is on the full 64 bits.
func (im *Image) blockSlot(blk uint64) (g, slot int, ok bool) {
	per := uint64(im.geom.dataBlocksPerGroup())
	if blk == 0 || (blk-1)/per >= uint64(im.Groups()) {
		return 0, 0, false
	}
	return int((blk - 1) / per), int((blk - 1) % per), true
}

// blockOffset returns the byte offset of global data-block number blk.
func (im *Image) blockOffset(blk uint64) (int, bool) {
	g, slot, ok := im.blockSlot(blk)
	return im.groupBase(g) + (im.geom.metaBlocksPerGroup()+slot)*im.geom.BlockSize, ok
}

// blockData returns the data of global data-block number blk.
func (im *Image) blockData(blk uint64) ([]byte, error) {
	if blk == 0 {
		return nil, fmt.Errorf("ldiskfs: nil block pointer")
	}
	off, ok := im.blockOffset(blk)
	if !ok {
		return nil, fmt.Errorf("ldiskfs: block %d out of range", blk)
	}
	return im.buf[off : off+im.geom.BlockSize], nil
}

// --- bitmap helpers -------------------------------------------------------

func bitmapGet(bm []byte, i int) bool { return bm[i/8]&(1<<(i%8)) != 0 }
func bitmapSet(bm []byte, i int)      { bm[i/8] |= 1 << (i % 8) }
func bitmapClear(bm []byte, i int)    { bm[i/8] &^= 1 << (i % 8) }

// bitmapFindFree returns the first clear bit < n, or -1.
func bitmapFindFree(bm []byte, n int) int {
	for byteIdx := 0; byteIdx*8 < n; byteIdx++ {
		b := bm[byteIdx]
		if b == 0xFF {
			continue
		}
		for bit := 0; bit < 8; bit++ {
			i := byteIdx*8 + bit
			if i >= n {
				return -1
			}
			if b&(1<<bit) == 0 {
				return i
			}
		}
	}
	return -1
}

// --- inode allocation -----------------------------------------------------

// AllocInode allocates a fresh inode of the given type and returns its
// number. A new block group is appended when the image is full.
func (im *Image) AllocInode(t FileType) (Ino, error) {
	if t == TypeFree {
		return 0, fmt.Errorf("ldiskfs: cannot allocate TypeFree")
	}
	for g := 0; g < im.Groups(); g++ {
		if i := bitmapFindFree(im.inodeBitmap(g), im.geom.InodesPerGroup); i >= 0 {
			bitmapSet(im.inodeBitmap(g), i)
			ino := Ino(g*im.geom.InodesPerGroup + i + 1)
			rec, _ := im.inode(ino)
			clear(rec)
			le.PutUint16(rec[inoModeOff:], uint16(t))
			le.PutUint16(rec[inoLinksOff:], 1)
			im.addInodeCount(1)
			im.markDirty(ino)
			return ino, nil
		}
	}
	im.addGroup()
	return im.AllocInode(t)
}

// FreeInode releases an inode and all blocks it references.
func (im *Image) FreeInode(ino Ino) error {
	rec, err := im.inode(ino)
	if err != nil {
		return err
	}
	if FileType(le.Uint16(rec[inoModeOff:])) == TypeFree {
		return ErrNotAllocated
	}
	// Release dirent blocks and xattr overflow block.
	for _, blk := range im.direntBlocks(rec) {
		im.freeBlock(blk)
	}
	if ind := le.Uint64(rec[inoIndirectOff:]); ind != 0 {
		im.freeBlock(ind)
	}
	if xb := le.Uint64(rec[inoXattrBlkOff:]); xb != 0 {
		im.freeBlock(xb)
	}
	clear(rec)
	idx := int(ino - 1)
	g := idx / im.geom.InodesPerGroup
	bitmapClear(im.inodeBitmap(g), idx%im.geom.InodesPerGroup)
	im.addInodeCount(-1)
	im.markDirty(ino)
	return nil
}

// InodeAllocated reports whether ino is allocated per the bitmap.
func (im *Image) InodeAllocated(ino Ino) bool {
	if ino == 0 || ino > im.MaxInode() {
		return false
	}
	idx := int(ino - 1)
	g := idx / im.geom.InodesPerGroup
	return bitmapGet(im.inodeBitmap(g), idx%im.geom.InodesPerGroup)
}

// Type returns the inode's file type.
func (im *Image) Type(ino Ino) (FileType, error) {
	rec, err := im.inode(ino)
	if err != nil {
		return TypeFree, err
	}
	return FileType(le.Uint16(rec[inoModeOff:])), nil
}

// --- scalar inode fields ---------------------------------------------------

func (im *Image) getU64(ino Ino, off int) (uint64, error) {
	rec, err := im.inode(ino)
	if err != nil {
		return 0, err
	}
	return le.Uint64(rec[off:]), nil
}

func (im *Image) setU64(ino Ino, off int, v uint64) error {
	rec, err := im.inode(ino)
	if err != nil {
		return err
	}
	le.PutUint64(rec[off:], v)
	im.markDirty(ino)
	return nil
}

// Size returns the inode's recorded size in bytes.
func (im *Image) Size(ino Ino) (uint64, error) { return im.getU64(ino, inoSizeOff) }

// SetSize records the inode's size in bytes.
func (im *Image) SetSize(ino Ino, size uint64) error { return im.setU64(ino, inoSizeOff, size) }

// SetTimes records access/modify/change times (unix nanoseconds).
func (im *Image) SetTimes(ino Ino, atime, mtime, ctime int64) error {
	rec, err := im.inode(ino)
	if err != nil {
		return err
	}
	le.PutUint64(rec[inoAtimeOff:], uint64(atime))
	le.PutUint64(rec[inoMtimeOff:], uint64(mtime))
	le.PutUint64(rec[inoCtimeOff:], uint64(ctime))
	im.markDirty(ino)
	return nil
}

// Times returns (atime, mtime, ctime) in unix nanoseconds.
func (im *Image) Times(ino Ino) (atime, mtime, ctime int64, err error) {
	rec, err := im.inode(ino)
	if err != nil {
		return 0, 0, 0, err
	}
	return int64(le.Uint64(rec[inoAtimeOff:])),
		int64(le.Uint64(rec[inoMtimeOff:])),
		int64(le.Uint64(rec[inoCtimeOff:])), nil
}

// SetOwner records uid/gid.
func (im *Image) SetOwner(ino Ino, uid, gid uint32) error {
	rec, err := im.inode(ino)
	if err != nil {
		return err
	}
	le.PutUint32(rec[inoUIDOff:], uid)
	le.PutUint32(rec[inoGIDOff:], gid)
	im.markDirty(ino)
	return nil
}

// Owner returns (uid, gid).
func (im *Image) Owner(ino Ino) (uid, gid uint32, err error) {
	rec, err := im.inode(ino)
	if err != nil {
		return 0, 0, err
	}
	return le.Uint32(rec[inoUIDOff:]), le.Uint32(rec[inoGIDOff:]), nil
}

// --- data block allocation --------------------------------------------------

// allocBlock allocates one data block and returns its global number
// (1-based; 0 is the nil pointer). The block is zeroed.
func (im *Image) allocBlock() uint64 {
	per := im.geom.dataBlocksPerGroup()
	for g := 0; g < im.Groups(); g++ {
		if i := bitmapFindFree(im.blockBitmap(g), per); i >= 0 {
			bitmapSet(im.blockBitmap(g), i)
			blk := uint64(g*per + i + 1)
			data, _ := im.blockData(blk)
			clear(data)
			im.addBlockCount(1)
			return blk
		}
	}
	im.addGroup()
	return im.allocBlock()
}

func (im *Image) freeBlock(blk uint64) {
	g, slot, ok := im.blockSlot(blk)
	if !ok {
		return
	}
	if bitmapGet(im.blockBitmap(g), slot) {
		bitmapClear(im.blockBitmap(g), slot)
		im.addBlockCount(-1)
	}
}

// CorruptBytes overwrites raw image bytes — the fault-injection hook.
// The containing inode (if the range hits one, or a directory whose
// dirent block it hits) is NOT marked dirty: silent corruption is
// exactly the change an online checker does not get told about.
func (im *Image) CorruptBytes(off int64, b []byte) error {
	if off < 0 || off+int64(len(b)) > int64(len(im.buf)) {
		return fmt.Errorf("ldiskfs: corrupt range [%d,%d) outside image", off, off+int64(len(b)))
	}
	copy(im.buf[off:], b)
	return nil
}

// --- dirty-inode tracking (online checking support) -----------------------

// markDirty records a metadata change to ino.
func (im *Image) markDirty(ino Ino) {
	if im.dirty == nil {
		im.dirty = make(map[Ino]struct{})
	}
	im.dirty[ino] = struct{}{}
}

// MarkDirty exposes markDirty for callers that mutate inode metadata
// through raw byte access but still want the change feed to see it.
func (im *Image) MarkDirty(ino Ino) { im.markDirty(ino) }

// DirtyInodes returns the inodes touched since the last ClearDirty, in
// ascending order. Freed inodes appear too (the consumer notices the
// deallocation via InodeAllocated).
func (im *Image) DirtyInodes() []Ino {
	out := make([]Ino, 0, len(im.dirty))
	for ino := range im.dirty {
		out = append(out, ino)
	}
	// An aging workload can accumulate tens of thousands of dirty inodes
	// between checks, so this must not be quadratic.
	slices.Sort(out)
	return out
}

// ClearDirty resets the change feed (after a consumer caught up).
//
// Only safe when the image is quiesced: any inode dirtied between the
// consumer's DirtyInodes() call and this reset is silently dropped from
// the feed. A consumer running concurrently with mutators must use
// ConsumeDirty with the exact set it processed.
func (im *Image) ClearDirty() { im.dirty = nil }

// ConsumeDirty removes exactly the given inodes from the change feed,
// leaving anything dirtied since the caller's DirtyInodes() snapshot in
// place for the next round. This is the lost-update-safe acknowledgement
// path for online consumers.
func (im *Image) ConsumeDirty(inos []Ino) {
	if len(im.dirty) == 0 {
		return
	}
	for _, ino := range inos {
		delete(im.dirty, ino)
	}
}
